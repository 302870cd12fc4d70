/**
 * @file
 * The traced kernel run: the same simulation Simulator::run performs
 * (invalidations and checks off), rebuilt from the library's public
 * pieces so that every call into the trace and core layers can be
 * timed from outside the program.
 */

#ifndef PERFBENCH_TRACED_KERNEL_HH
#define PERFBENCH_TRACED_KERNEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hh"
#include "sim/simulator.hh"
#include "trace/workload.hh"

namespace perfbench
{

/**
 * Workload decorator handed to Pipeline: forwards every call to the
 * wrapped workload and times it. Never changes what the pipeline
 * sees.
 */
class TimingWorkload final : public dmdc::Workload
{
  public:
    explicit TimingWorkload(dmdc::Workload &inner) : inner_(inner) {}

    const dmdc::MicroOp &
    op(std::uint64_t index) override
    {
        const std::int64_t t0 = nowNs();
        const dmdc::MicroOp &m = inner_.op(index);
        op_.add(t0, nowNs());
        return m;
    }

    dmdc::MicroOp
    wrongPathOp(dmdc::Addr pc, std::uint64_t salt) override
    {
        const std::int64_t t0 = nowNs();
        dmdc::MicroOp m = inner_.wrongPathOp(pc, salt);
        wrongPath_.add(t0, nowNs());
        return m;
    }

    void
    discardBefore(std::uint64_t index) override
    {
        const std::int64_t t0 = nowNs();
        inner_.discardBefore(index);
        discard_.add(t0, nowNs());
    }

    const std::string &name() const override { return inner_.name(); }
    bool isFpBenchmark() const override { return inner_.isFpBenchmark(); }

    const CallClock &opClock() const { return op_; }
    const CallClock &wrongPathClock() const { return wrongPath_; }
    const CallClock &discardClock() const { return discard_; }

    /** Time spent inside the wrapped workload so far. */
    std::int64_t
    totalNs() const
    {
        return op_.ns + wrongPath_.ns + discard_.ns;
    }

  private:
    dmdc::Workload &inner_;
    CallClock op_;
    CallClock wrongPath_;
    CallClock discard_;
};

/** Everything one traced run measured. */
struct TracedKernelRun
{
    /** Pinned columns (see pinnedValues()), for the fidelity check. */
    std::vector<std::string> pinned;
    std::uint64_t warmupCommitted = 0;
    /** Measured-phase committed instructions and cycles. */
    std::uint64_t committed = 0;
    std::uint64_t cycles = 0;

    /** Coarse spans, kept in memory: the run, its set-up, phases and
     *  energy accounting. */
    std::vector<Span> spans;
    std::int64_t traceBuildNs = 0; ///< makeSpecWorkload
    std::int64_t coreBuildNs = 0;  ///< Pipeline constructor
    std::int64_t energyNs = 0;     ///< EnergyModel::compute
    std::int64_t totalNs = 0;      ///< whole traced run

    /** Per-call clocks of the hot layer functions, both phases. */
    CallClock op, wrongPath;
    CallClock tick, nextEvent, skip;
    /** Workload time nested inside tick() calls. */
    std::int64_t tickChildNs = 0;
    std::uint64_t emptyTicks = 0;
    /** Cycles advanced by skipIdleCycles, and all cycles simulated. */
    std::uint64_t skippedCycles = 0;
    std::uint64_t allCycles = 0;

    /** Model counters of the measured phase (stats accessors). */
    std::uint64_t dispatched = 0, issued = 0, mispredicts = 0;
    std::uint64_t l1dHits = 0, l1dMisses = 0, l2Hits = 0, l2Misses = 0;
    std::uint64_t lqSearches = 0, lqFiltered = 0, sqSearches = 0;
    std::uint64_t loadRejections = 0, replays = 0;

    /** Warm-up plus measured committed instructions. */
    std::uint64_t
    allCommitted() const
    {
        return warmupCommitted + committed;
    }
};

/**
 * Run @p opt traced: makeMachineConfig /
 * applyScheme / makeSpecWorkload around a TimingWorkload, then the
 * tick / idle-skip / resetStats sequence of Simulator::run. @p opt
 * must have invalidations, checks, observers and tweaks off. Throws
 * std::runtime_error when the stall watchdog would have fired.
 */
TracedKernelRun runTracedKernel(const dmdc::SimOptions &opt,
                                std::uint64_t span_id);

} // namespace perfbench

#endif // PERFBENCH_TRACED_KERNEL_HH
