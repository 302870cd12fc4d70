/**
 * @file
 * Top-level public API: configure and run one simulation and collect a
 * SimResult. This is the entry point examples, tests and benches use.
 */

#ifndef DMDC_SIM_SIMULATOR_HH
#define DMDC_SIM_SIMULATOR_HH

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "lsq/lsq_unit.hh"
#include "sim/results.hh"
#include "trace/synthetic.hh"
#include "verify/check_mode.hh"

namespace dmdc
{

/** Options of one simulation run. */
struct SimOptions
{
    /** SPEC stand-in benchmark name (see specAllNames()). */
    std::string benchmark = "gzip";
    /** Paper Table 1 configuration level, 1-3. */
    unsigned configLevel = 2;
    /** Scheme registry name or alias (see --list-schemes). */
    std::string scheme = "baseline";

    std::uint64_t warmupInsts = 100000;
    std::uint64_t runInsts = 1000000;

    /** External invalidation rate (paper Table 6 sweep). */
    double invalidationsPer1kCycles = 0.0;
    /** Coherence extension (second YLA set + INV bits). */
    bool coherence = false;
    /** Safe-load detection (Sec. 4.2 optimization; ablation knob). */
    bool safeLoads = true;
    /** SQ-side age filter (Sec. 3 extension; default off, as in the
     *  paper's evaluation). */
    bool sqFilter = false;

    /** Override the quad-word YLA register count (default 8). */
    unsigned numYlaQw = 8;
    /** Override the checking-table entry count (0 = config default). */
    unsigned tableEntriesOverride = 0;
    /** Checking-queue entries for the dmdc-queue scheme. */
    unsigned queueEntries = 16;

    /** Shadow filters to attach (not owned; Figs. 2/3). */
    std::vector<FilterObserver *> observers;

    /** Override any core parameter after preset construction. */
    std::function<void(CoreParams &)> tweak;

    // ---- watchdog limits (never part of the run-cache key: they
    // bound execution, they don't change results) ----

    /**
     * Wall-clock budget per run in milliseconds (--timeout); the run
     * throws RunError(Timeout) when exceeded. A campaign also waits
     * at most this long on another process's claim of the run before
     * simulating it itself. 0 disables both.
     */
    double timeoutMs = 0.0;

    /**
     * Cycle-budget watchdog: a RunError(Timeout) after this many
     * consecutive cycles without a single committed instruction (a
     * wedged pipeline). 0 disables; the default trips on deadlock
     * long before any real workload comes close.
     */
    std::uint64_t stallCycleLimit = 100000;

    // ---- verification (never part of the run-cache key: checked
    // runs bypass the cache entirely, and --check=off journals must
    // stay byte-identical to pre-oracle runs) ----

    /**
     * Commit-time verification. Oracle attaches the ordering oracle;
     * Litmus additionally swaps the random invalidation injector for
     * a scripted coherence agent (coherenceAgent, default "mixed").
     * A forbidden outcome makes run() throw RunError(SimInvariant).
     */
    CheckMode check = CheckMode::Off;

    /**
     * Scripted coherence-agent spec ("producer-consumer",
     * "lock-handoff", "false-sharing", "mixed", each optionally
     * ":period=<cycles>"). Empty = random injector (or none).
     */
    std::string coherenceAgent;
};

/**
 * Validate every SimOptions field up front; throws RunError(Config)
 * with a precise message on out-of-range sizes, non-power-of-two
 * table/YLA geometries, or unknown benchmark/scheme/config names.
 * Simulator's constructor calls this, so library users get a
 * structured error instead of a fatal() deep inside construction.
 */
void validateSimOptions(const SimOptions &options);

/** Knobs of a RunLoop. */
struct RunLoopOptions
{
    /** See SimOptions::stallCycleLimit; 0 disables. */
    std::uint64_t stallCycleLimit = 100000;
    /** Wall-clock budget over the loop's lifetime, ms; 0 = none. */
    double timeoutMs = 0.0;
    /**
     * Per-cycle external coherence traffic (invalidation injector or
     * scripted agent): delivers this cycle's invalidations to the
     * pipeline and returns how many it delivered. Empty = none.
     */
    std::function<std::uint64_t(Pipeline &)> traffic;
    /** Injected run-hang chaos: never tick, so the stall watchdog
     *  fires (at 100k cycles even when it is otherwise disabled). */
    bool hang = false;
};

/**
 * The simulation run loop. Ticks a Pipeline until a commit target,
 * skipping empty cycles in bulk (bit-identically; see
 * Pipeline::tick()), with two watchdogs that turn a wedged run into
 * RunError(Timeout): a budget of consecutive commit-free cycles and
 * an optional wall-clock deadline. Simulator::run() drives warm-up and
 * measurement through it; tests and examples use it to drive a
 * Pipeline built around their own Workload.
 */
class RunLoop
{
  public:
    explicit RunLoop(Pipeline &pipe, RunLoopOptions options = {});

    /** Tick until @p insts more instructions have committed. */
    void run(std::uint64_t insts);

  private:
    Pipeline &pipe_;
    RunLoopOptions opts_;
    std::chrono::steady_clock::time_point deadline_;
    /** Loop iterations across run() calls (paces the deadline check). */
    std::uint64_t iterations_ = 0;
};

class OrderingOracle;

/** One fully-owned simulation instance. */
class Simulator
{
  public:
    explicit Simulator(const SimOptions &options);
    ~Simulator();

    /** Run warm-up + measured phase; returns the collected result. */
    SimResult run();

    /** Access the live pipeline (tests and examples). */
    Pipeline &pipeline() { return *pipe_; }
    SyntheticWorkload &workload() { return *workload_; }
    const CoreParams &coreParams() const { return params_; }

    /** The attached ordering oracle (nullptr with --check=off). */
    const OrderingOracle *oracle() const { return oracle_.get(); }

  private:
    SimOptions options_;
    CoreParams params_;
    std::unique_ptr<SyntheticWorkload> workload_;
    std::unique_ptr<Pipeline> pipe_;
    std::unique_ptr<OrderingOracle> oracle_;
    /** Injected run-hang chaos (FaultInjector, keyed on runIdentity()). */
    bool hang_ = false;
};

/** Convenience wrapper: construct, run, return. */
SimResult runSimulation(const SimOptions &options);

} // namespace dmdc

#endif // DMDC_SIM_SIMULATOR_HH
