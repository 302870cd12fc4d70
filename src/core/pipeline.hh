/**
 * @file
 * The out-of-order pipeline: the SimpleScalar sim-outorder equivalent
 * this reproduction is built on. Glues fetch, rename/dispatch, issue,
 * execute, writeback and commit around the ROB, issue queues and the
 * LSQ unit, with full wrong-path execution and squash recovery.
 */

#ifndef DMDC_CORE_PIPELINE_HH
#define DMDC_CORE_PIPELINE_HH

#include <vector>

#include "branch/predictor.hh"
#include "common/object_pool.hh"
#include "common/stats.hh"
#include "core/completion_wheel.hh"
#include "core/fetch.hh"
#include "core/fu_pool.hh"
#include "core/issue_queue.hh"
#include "core/regfile.hh"
#include "core/rename.hh"
#include "core/rob.hh"
#include "lsq/lsq_unit.hh"
#include "mem/hierarchy.hh"
#include "trace/workload.hh"
#include "verify/ordering_oracle.hh"

namespace dmdc
{

/** Full core configuration (see sim/machine_config for presets). */
struct CoreParams
{
    unsigned fetchWidth = 8;
    unsigned decodeWidth = 8;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;
    unsigned robSize = 256;
    unsigned intIqSize = 48;
    unsigned fpIqSize = 48;
    unsigned intRegs = 200;
    unsigned fpRegs = 200;
    unsigned fetchToDispatch = 3;
    /**
     * Extra front-end redirect stall after a misprediction/replay;
     * together with fetchToDispatch this realizes the paper's 7-cycle
     * misprediction penalty.
     */
    unsigned redirectPenalty = 4;
    unsigned l1dPorts = 2;
    unsigned loadRetryDelay = 3;   ///< rejected-load retry interval
    unsigned fetchQueueSize = 32;

    FetchParams fetchParams() const
    {
        return FetchParams{fetchWidth, fetchToDispatch};
    }

    FuPoolParams fu;
    BranchPredictorParams bp;
    HierarchyParams mem;
    LsqParams lsq;
};

/** Aggregate pipeline statistics (beyond subsystem stat groups). */
struct PipelineStats
{
    Counter cycles;
    Counter committedInsts;
    Counter committedLoads;
    Counter committedStores;
    Counter committedBranches;
    Counter dispatched;
    Counter issued;
    Counter branchMispredicts;
    Counter mispredCond;       ///< direction mispredictions
    Counter mispredBtbMiss;    ///< taken but no BTB target
    Counter mispredTarget;     ///< taken with wrong target
    Counter mispredReturn;     ///< RAS misses/corruption
    Counter baselineReplays;   ///< store-resolve-detected violations
    Counter dmdcReplays;       ///< commit-time DMDC replays
    Counter ageTableReplays;   ///< age-table squash-all-younger replays
    Counter loadRejections;    ///< SQ reject-and-retry events
    Counter loadForwards;      ///< store-to-load forwards
    Counter speculativeLoads;  ///< loads issued past unresolved stores
};

/** The pipeline. */
class Pipeline
{
  public:
    Pipeline(const CoreParams &params, Workload &workload);
    ~Pipeline();

    /**
     * Advance one cycle.
     * @return how many pipeline events made progress this cycle
     *         (fetched, dispatched, issued, completed, committed,
     *         retried, squashed, ...). A return of 0 certifies an
     *         empty tick: no stage changed any state beyond the
     *         per-cycle bookkeeping that skipIdleCycles() reproduces,
     *         so the cycle counter may be jumped to nextEventCycle()
     *         with bit-identical results.
     */
    unsigned tick();

    /**
     * The earliest future cycle at which a stage could make progress
     * again after an empty tick: the next completion event, the fetch
     * queue head's decode-ready cycle, the end of an I-cache stall,
     * the earliest load-retry cycle, or an unpipelined divider
     * freeing up. Conservative (waking early is harmless — the tick
     * is empty again and skipping resumes). @return 0 when no future
     * event exists (a wedged pipeline the watchdogs must catch).
     */
    Cycle nextEventCycle() const;

    /**
     * Account @p n skipped empty cycles in bulk: advances now_ and
     * the cycle counter, and reproduces the only two per-cycle side
     * effects an empty tick has (fetch I-cache stall accounting and
     * the policy's checking-cycle counting). Caller must have just
     * observed tick() == 0 and must not skip past nextEventCycle()-1.
     */
    void skipIdleCycles(Cycle n);

    /** Inject an external coherence invalidation for @p addr's line. */
    void externalInvalidation(Addr addr);

    Cycle now() const { return now_; }
    std::uint64_t committed() const
    {
        return stats_.committedInsts.value();
    }
    double
    ipc() const
    {
        const auto c = stats_.cycles.value();
        return c ? static_cast<double>(committed()) / c : 0.0;
    }

    LsqUnit &lsq() { return lsq_; }
    const LsqUnit &lsq() const { return lsq_; }
    const PipelineStats &stats() const { return stats_; }
    const MemoryHierarchy &mem() const { return mem_; }
    const FetchStage &fetch() const { return fetch_; }
    const RegFileActivity &regfile() const { return regfile_; }
    const CoreParams &params() const { return params_; }
    const Workload &workload() const { return workload_; }

    /** Attach a shadow filter (Figs. 2/3); not owned. */
    void addFilterObserver(FilterObserver *obs)
    {
        lsq_.addObserver(obs);
    }

    /**
     * Attach the --check ordering oracle (not owned): wires the LSQ
     * hooks, the policy cross-check, and the ROB retire observer in
     * one step. Pass nullptr to detach.
     */
    void attachOracle(OrderingOracle *oracle)
    {
        lsq_.setOracle(oracle);
        rob_.setRetireObserver(oracle);
    }

    /** Zero all statistics (end-of-warm-up). */
    void resetStats();

    void regStats(StatGroup &parent);
    StatGroup &statRoot() { return root_; }

  private:
    bool producerDone(const DynInst *producer, SeqNum pseq) const;
    IssueQueue &queueFor(const DynInst *inst)
    {
        return inst->op.isFp() ? fpIq_ : intIq_;
    }
    void subscribe(DynInst *inst);
    unsigned doFetch();
    unsigned doDispatch();
    unsigned doIssue();
    bool executeLoad(DynInst *load);
    void resolveStore(DynInst *inst);
    unsigned doCompletions();
    void completeInst(DynInst *inst);
    void resolveBranch(DynInst *inst);
    unsigned doCommit();
    void squashFrom(SeqNum from_seq);
    void replayFrom(DynInst *load);

    CoreParams params_;
    Workload &workload_;

    DynInstPool pool_;
    MemoryHierarchy mem_;
    BranchPredictor predictor_;
    FetchStage fetch_;
    Rob rob_;
    RenameState rename_;
    IssueQueue intIq_;
    IssueQueue fpIq_;
    FuPool fuPool_;
    RegFileActivity regfile_;
    LsqUnit lsq_;

    Cycle now_ = 0;
    RingBuffer<DynInst *> fetchQueue_;
    CompletionWheel completions_;
    std::vector<DynInst *> retryLoads_; ///< rejected loads awaiting retry
    unsigned dcachePortsUsed_ = 0;
    std::uint64_t lastDmdcReplayIndex_ = ~std::uint64_t{0};
    DynInst *pendingReplay_ = nullptr;  ///< deferred violation victim
    DynInst *pendingAgeReplay_ = nullptr; ///< age-table replay store

    PipelineStats stats_;
    StatGroup root_;
    StatGroup pipeStats_{"pipeline"};
};

} // namespace dmdc

#endif // DMDC_CORE_PIPELINE_HH
