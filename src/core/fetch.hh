/**
 * @file
 * Fetch stage: walks the workload's correct path following branch
 * predictions, diverges onto synthesized wrong paths after a
 * misprediction, and models I-cache latency.
 */

#ifndef DMDC_CORE_FETCH_HH
#define DMDC_CORE_FETCH_HH

#include "branch/predictor.hh"
#include "common/object_pool.hh"
#include "common/stats.hh"
#include "core/inst.hh"
#include "mem/hierarchy.hh"
#include "trace/workload.hh"

namespace dmdc
{

/** Fetch configuration. */
struct FetchParams
{
    unsigned fetchWidth = 8;
    unsigned fetchToDispatch = 3;  ///< front-end depth in cycles
};

/** The fetch stage. */
class FetchStage
{
  public:
    FetchStage(const FetchParams &params, Workload &workload,
               BranchPredictor &predictor, MemoryHierarchy &mem,
               ObjectPool<DynInst> &pool);

    /**
     * Fetch up to min(fetchWidth, @p max_count) micro-ops this cycle,
     * appending pool-allocated DynInsts to @p out. Fetch stops at a
     * predicted-taken branch and on I-cache misses.
     */
    void tick(Cycle now, RingBuffer<DynInst *> &out,
              std::size_t max_count);

    /** Redirect to correct-path index @p trace_index at @p resume. */
    void redirectToTrace(std::uint64_t trace_index, Cycle resume);

    /**
     * Redirect to a wrong-path PC (used when a replay victim is itself
     * a wrong-path load; the eventual branch resolution will recover).
     */
    void redirectWrongPath(Addr pc, Cycle resume);

    bool onWrongPath() const { return wrongPathMode_; }
    SeqNum lastSeq() const { return seqCounter_; }

    /** True when an I-cache miss is stalling fetch at @p now. */
    bool stalled(Cycle now) const { return now < stallUntil_; }
    /** Cycle the current I-cache stall ends (idle-skip wake event). */
    Cycle stallUntil() const { return stallUntil_; }

    /**
     * Account @p n skipped idle cycles that would each have ticked a
     * stalled fetch stage (see Pipeline::skipIdleCycles).
     */
    void noteIdleStallCycles(Cycle n) { icacheStallCycles += n; }

    void regStats(StatGroup &parent);

    Counter fetchedTotal;
    Counter fetchedWrongPath;
    Counter icacheStallCycles;

  private:
    DynInst *makeInst(const MicroOp &op, bool wrong_path, Cycle now);

    FetchParams params_;
    Workload &workload_;
    BranchPredictor &predictor_;
    MemoryHierarchy &mem_;
    ObjectPool<DynInst> &pool_;
    unsigned lineShift_;   ///< log2 of the I-cache line size

    Addr fetchPc_;
    std::uint64_t nextTraceIndex_ = 0;
    bool wrongPathMode_ = false;
    std::uint64_t wrongPathSalt_ = 0;
    Cycle stallUntil_ = 0;
    Addr lastFetchLine_ = invalidAddr;
    SeqNum seqCounter_ = 0;

    StatGroup stats_{"fetch"};
};

} // namespace dmdc

#endif // DMDC_CORE_FETCH_HH
