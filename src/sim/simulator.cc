/**
 * @file
 * Simulator driver implementation.
 */

#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "common/trace_sink.hh"
#include "lsq/policy/registry.hh"
#include "sim/campaign_runner.hh"
#include "sim/fault_injector.hh"
#include "sim/invalidation.hh"
#include "sim/run_error.hh"
#include "trace/spec_suite.hh"
#include "verify/coherence_agent.hh"
#include "verify/ordering_oracle.hh"

namespace dmdc
{

namespace
{

[[noreturn]] void
configError(const std::string &message)
{
    throw RunError(RunErrorCategory::Config, message);
}

/** Interned-once trace identities for the kernel layer. */
struct KernelTrace
{
    TraceCategory &cat = traceCategory("kernel");
    std::uint16_t warmup = traceNameId("warmup");
    std::uint16_t measure = traceNameId("measure");
    std::uint16_t idleSkip = traceNameId("idle-skip");
    std::uint16_t cycles = traceNameId("cycles");
    std::uint16_t instructions = traceNameId("instructions");
    std::uint16_t dmdcReplays = traceNameId("replays.dmdc");
    std::uint16_t baselineReplays = traceNameId("replays.baseline");
    std::uint16_t ageReplays = traceNameId("replays.age-table");
    std::uint16_t checkingCycles = traceNameId("checking-cycles");
};

KernelTrace &
kernelTrace()
{
    static KernelTrace ids;
    return ids;
}

} // namespace

void
validateSimOptions(const SimOptions &opt)
{
    if (opt.configLevel < 1 || opt.configLevel > 3)
        configError("machine configuration level must be 1-3, got " +
                    std::to_string(opt.configLevel));
    const std::vector<std::string> &names = specAllNames();
    if (std::find(names.begin(), names.end(), opt.benchmark) ==
        names.end())
        configError("unknown benchmark '" + opt.benchmark +
                    "' (see --list)");
    if (!DependencePolicyRegistry::instance().find(opt.scheme))
        configError("unknown dependence-checking scheme '" +
                    opt.scheme + "' (see --list-schemes)");
    if (opt.runInsts == 0)
        configError("measured instruction count must be > 0");
    if (opt.warmupInsts > (std::uint64_t{1} << 40) ||
        opt.runInsts > (std::uint64_t{1} << 40))
        configError("instruction budget is implausibly large "
                    "(> 2^40)");
    if (opt.numYlaQw == 0 || opt.numYlaQw > 4096 ||
        !isPowerOf2(opt.numYlaQw))
        configError("YLA register count must be a power of two in "
                    "[1, 4096], got " + std::to_string(opt.numYlaQw));
    if (opt.tableEntriesOverride != 0 &&
        (!isPowerOf2(opt.tableEntriesOverride) ||
         opt.tableEntriesOverride > (1u << 24)))
        configError("checking-table entries must be a power of two "
                    "<= 2^24, got " +
                    std::to_string(opt.tableEntriesOverride));
    if (opt.queueEntries == 0 || opt.queueEntries > (1u << 20))
        configError("checking-queue entries must be in [1, 2^20], "
                    "got " + std::to_string(opt.queueEntries));
    if (!std::isfinite(opt.invalidationsPer1kCycles) ||
        opt.invalidationsPer1kCycles < 0.0)
        configError("invalidation rate must be finite and >= 0");
    if (!std::isfinite(opt.timeoutMs) || opt.timeoutMs < 0.0)
        configError("run timeout must be finite and >= 0");
    if (!opt.coherenceAgent.empty()) {
        std::string err;
        if (!CoherenceAgent::validateSpec(opt.coherenceAgent, &err))
            configError("bad coherence-agent spec '" +
                        opt.coherenceAgent + "': " + err);
    }
}

RunLoop::RunLoop(Pipeline &pipe, RunLoopOptions options)
    : pipe_(pipe), opts_(std::move(options))
{
    // An injected wedge must never outlive the watchdog, even when
    // the caller disabled the stall guard.
    if (opts_.hang && !opts_.stallCycleLimit)
        opts_.stallCycleLimit = 100000;
    using WallClock = std::chrono::steady_clock;
    deadline_ = WallClock::now() +
        std::chrono::duration_cast<WallClock::duration>(
            std::chrono::duration<double, std::milli>(opts_.timeoutMs));
}

void
RunLoop::run(std::uint64_t insts)
{
    // ---- watchdogs ----
    //
    // Two independent guards turn a wedged simulation into a
    // structured RunError(Timeout) instead of a hung worker: a
    // cycle-budget watchdog (no commit progress for stallCycleLimit
    // consecutive cycles — deterministic, catches pipeline deadlock)
    // and an optional wall-clock deadline, checked once every
    // wallCheckIntervalTicks loop iterations to keep the hot loop
    // free of clock syscalls. The interval counts loop iterations,
    // not simulated cycles: a bulk idle skip advances many cycles in
    // one iteration, and the deadline guards wall time, which scales
    // with iterations.
    constexpr std::uint64_t wallCheckIntervalTicks = 4096;
    static_assert((wallCheckIntervalTicks &
                   (wallCheckIntervalTicks - 1)) == 0,
                  "wall-check interval must be a power of two");
    const bool wall_limited = opts_.timeoutMs > 0.0;
    const std::uint64_t stall_limit = opts_.stallCycleLimit;
    const bool hang = opts_.hang;
    KernelTrace &kt = kernelTrace();

    const std::uint64_t target = pipe_.committed() + insts;
    std::uint64_t last_committed = pipe_.committed();
    std::uint64_t stall_cycles = 0;
    while (pipe_.committed() < target || hang) {
        unsigned progress = 0;
        std::uint64_t injected = 0;
        if (!hang) {
            progress = pipe_.tick();
            if (opts_.traffic)
                injected = opts_.traffic(pipe_);
        }
        if (hang || pipe_.committed() == last_committed) {
            if (stall_limit && ++stall_cycles > stall_limit)
                throw RunError(
                    RunErrorCategory::Timeout,
                    "no commit progress in " +
                        std::to_string(stall_limit) + " cycles (" +
                        (hang ? std::string("injected run-hang")
                              : "wedged pipeline") +
                        ", benchmark " + pipe_.workload().name() + ")");
        } else {
            stall_cycles = 0;
            last_committed = pipe_.committed();
        }
        // Event-driven idle skip: after an empty tick with no
        // injection, jump to just before the next pipeline event.
        if (!hang && progress == 0 && injected == 0 &&
            pipe_.committed() < target) {
            const Cycle wake = pipe_.nextEventCycle();
            Cycle n = wake > pipe_.now() + 1
                ? wake - pipe_.now() - 1 : 0;
            // Each skipped cycle is a commit-free cycle; cap the jump
            // so the stall watchdog above still throws at the exact
            // cycle it would have without skipping.
            if (stall_limit && n > stall_limit - stall_cycles)
                n = stall_limit - stall_cycles;
            if (n > 0) {
                if (opts_.traffic) {
                    // Bulk skipping would perturb the source's
                    // per-cycle state (RNG stream or script phase):
                    // replay it cycle by cycle, and stop skipping the
                    // moment it injects (the pipeline is no longer
                    // idle).
                    Cycle skipped = 0;
                    while (skipped < n) {
                        pipe_.skipIdleCycles(1);
                        ++skipped;
                        if (opts_.traffic(pipe_) != 0)
                            break;
                    }
                    n = skipped;
                } else {
                    pipe_.skipIdleCycles(n);
                }
                stall_cycles += n;
                traceInstantArg(kt.cat, kt.idleSkip, n);
            }
        }
        if (wall_limited &&
            (++iterations_ & (wallCheckIntervalTicks - 1)) == 0 &&
            std::chrono::steady_clock::now() > deadline_)
            throw RunError(
                RunErrorCategory::Timeout,
                "wall-clock timeout after " +
                    std::to_string(opts_.timeoutMs) + " ms (benchmark " +
                    pipe_.workload().name() + ")");
    }
}

Simulator::Simulator(const SimOptions &options) : options_(options)
{
    validateSimOptions(options_);
    params_ = makeMachineConfig(options_.configLevel);
    applyScheme(params_, options_.scheme, options_.coherence,
                options_.safeLoads);
    params_.lsq.dmdc.numYlaQw = options_.numYlaQw;
    if (options_.tableEntriesOverride)
        params_.lsq.dmdc.tableEntries = options_.tableEntriesOverride;
    params_.lsq.dmdc.queueEntries = options_.queueEntries;
    params_.lsq.sqFilter = options_.sqFilter;
    if (options_.tweak)
        options_.tweak(params_);

    workload_ = makeSpecWorkload(options_.benchmark);
    pipe_ = std::make_unique<Pipeline>(params_, *workload_);
    for (FilterObserver *obs : options_.observers)
        pipe_->addFilterObserver(obs);

    // --check=litmus means oracle + scripted coherence traffic; the
    // mixed rotation is the default when no family was named.
    if (options_.check == CheckMode::Litmus &&
        options_.coherenceAgent.empty())
        options_.coherenceAgent = "mixed";
    if (options_.check != CheckMode::Off) {
        OrderingOracle::Params op;
        op.lineBytes = params_.mem.l1d.lineBytes;
        oracle_ = std::make_unique<OrderingOracle>(op);
        // attachOracle -> LsqUnit::setOracle fills in the policy
        // contract (enforceExternal / exemptSafeLoads).
        pipe_->attachOracle(oracle_.get());
    }

    // Deterministic chaos, keyed on the run's identity like the
    // runner's run-throw site: lsq-corrupt silently weakens the
    // policy's checking so CI can prove the oracle catches real
    // miscompares; run-hang wedges run(). Unarmed runs build no key.
    const FaultInjector &faults = FaultInjector::global();
    if (faults.enabled()) {
        const std::string id = runIdentity(options_);
        if (faults.injectLsqCorrupt(id))
            pipe_->lsq().corruptChecking();
        hang_ = faults.injectRunHang(id);
    }
}

Simulator::~Simulator() = default;

SimResult
Simulator::run()
{
    KernelTrace &kt = kernelTrace();
    const WorkloadParams &wp = workload_->params();
    // Invalidations model another processor writing a shared address
    // space; sampling only this core's (small) footprint would make
    // every message evict live cache lines, which is neither the
    // paper's methodology nor how random coherence traffic behaves.
    const unsigned inv_region_log2 =
        wp.footprintLog2 > 26 ? wp.footprintLog2 : 26;
    InvalidationInjector injector(
        options_.invalidationsPer1kCycles,
        Addr{0x10000000}, Addr{1} << inv_region_log2,
        params_.mem.l1d.lineBytes,
        wp.seed ^ 0xfeedbeefull);

    // A scripted coherence agent (litmus runs) replaces the random
    // injector outright: its traffic targets the workload's actual
    // footprint so deliveries collide with in-flight loads.
    std::unique_ptr<CoherenceAgent> agent;
    if (!options_.coherenceAgent.empty())
        agent = std::make_unique<CoherenceAgent>(
            options_.coherenceAgent, Addr{0x10000000},
            Addr{1} << wp.footprintLog2, params_.mem.l1d.lineBytes,
            wp.seed ^ 0x5ca1ab1eull);

    // Deterministic chaos: a run-hang fault wedges this run — cycles
    // elapse, commits don't — which must surface via the watchdog.
    RunLoopOptions lo;
    lo.stallCycleLimit = options_.stallCycleLimit;
    lo.timeoutMs = options_.timeoutMs;
    lo.hang = hang_;
    // An inactive injector draws no random numbers, so leaving it out
    // lets idle cycles skip in bulk without perturbing anything.
    if (agent) {
        lo.traffic = [&agent](Pipeline &pipe) {
            const std::uint64_t before = agent->injected();
            agent->tick(pipe);
            return agent->injected() - before;
        };
    } else if (injector.active()) {
        lo.traffic = [&injector](Pipeline &pipe) {
            const std::uint64_t before = injector.injected();
            injector.tick(pipe);
            return injector.injected() - before;
        };
    }
    RunLoop loop(*pipe_, std::move(lo));

    {
        TraceSpan span(kt.cat, kt.warmup);
        loop.run(options_.warmupInsts);
    }
    pipe_->resetStats();
    {
        TraceSpan span(kt.cat, kt.measure);
        loop.run(options_.runInsts);
    }

    // ---- collect ----
    SimResult r;
    r.benchmark = options_.benchmark;
    r.fp = workload_->isFpBenchmark();
    r.configLevel = options_.configLevel;
    // Canonical name, even when the option carried an alias.
    r.scheme = params_.lsq.policy;

    const PipelineStats &ps = pipe_->stats();
    r.instructions = ps.committedInsts.value();
    r.cycles = ps.cycles.value();
    r.ipc = pipe_->ipc();

    const auto &act = pipe_->lsq().activity();
    r.lqSearches = act.lqSearches.value();
    r.lqSearchesFiltered = act.lqSearchesFiltered.value();
    r.sqSearches = act.sqSearches.value();
    r.sqSearchesFiltered = act.sqSearchesFiltered.value();
    r.ageTableReplays = ps.ageTableReplays.value();
    r.loadsOlderThanAllStores = act.loadsOlderThanAllStores.value();
    r.committedLoads = ps.committedLoads.value();
    r.committedStores = ps.committedStores.value();
    r.baselineReplays = ps.baselineReplays.value();
    r.dmdcReplays = ps.dmdcReplays.value();
    r.trueViolations = act.trueViolationsDetected.value();

    if (const DmdcEngine *engine = pipe_->lsq().dmdc()) {
        const auto &ds = engine->stats();
        const double stores = static_cast<double>(
            ds.safeStores.value() + ds.unsafeStores.value());
        r.safeStoreFrac = stores
            ? static_cast<double>(ds.safeStores.value()) / stores : 0.0;
        const double loads =
            static_cast<double>(ps.committedLoads.value());
        r.safeLoadFrac = loads
            ? static_cast<double>(ds.safeLoadsMarked.value()) / loads
            : 0.0;
        r.checkingCycleFrac = r.cycles
            ? static_cast<double>(ds.checkingCycles.value()) /
                static_cast<double>(r.cycles)
            : 0.0;
        r.windowInstrs = ds.windowInstrs.mean();
        r.windowLoads = ds.windowLoads.mean();
        r.windowSafeLoads = ds.windowSafeLoads.mean();
        r.windowMarkedEntries = ds.windowMarkedEntries.mean();
        const double windows =
            static_cast<double>(ds.windows.value());
        r.windowSingleStoreFrac = windows
            ? static_cast<double>(ds.windowsSingleStore.value()) /
                windows
            : 0.0;
        r.trueReplays = ds.trueReplays.value();
        r.falseAddrX = ds.falseAddrX.value();
        r.falseAddrY = ds.falseAddrY.value();
        r.falseHashBefore = ds.falseHashBefore.value();
        r.falseHashX = ds.falseHashX.value();
        r.falseHashY = ds.falseHashY.value();
        r.falseOverflow = ds.falseOverflow.value();
    }

    if (kt.cat.on()) {
        // Per-policy end-of-run counters: one sample each, so a
        // campaign trace shows the policy mix at a glance.
        traceCounter(kt.cat, kt.cycles, r.cycles);
        traceCounter(kt.cat, kt.instructions, r.instructions);
        traceCounter(kt.cat, kt.dmdcReplays, r.dmdcReplays);
        traceCounter(kt.cat, kt.baselineReplays, r.baselineReplays);
        traceCounter(kt.cat, kt.ageReplays, r.ageTableReplays);
        if (const DmdcEngine *engine = pipe_->lsq().dmdc()) {
            traceCounter(kt.cat, kt.checkingCycles,
                         engine->stats().checkingCycles.value());
        }
    }

    EnergyModel energy_model(params_);
    r.energy = energy_model.compute(*pipe_);

    // ---- verdict ----
    r.checkMode = checkModeName(options_.check);
    if (agent)
        r.agentInvalidations = agent->injected();
    if (oracle_) {
        const OracleCounters &oc = oracle_->counters();
        r.oracleLoadsChecked = oc.loadsChecked;
        r.oracleStaleCommits = oc.staleCommits;
        r.oracleForbidden = oc.forbidden();
        // A forbidden outcome is a simulator-invariant failure: the
        // run produced results, but they are untrustworthy.
        if (oracle_->failed())
            throw RunError(RunErrorCategory::SimInvariant,
                           "ordering oracle: " + oracle_->firstFailure() +
                               " (benchmark " + options_.benchmark +
                               ", scheme " + params_.lsq.policy + ")");
    }
    return r;
}

SimResult
runSimulation(const SimOptions &options)
{
    Simulator sim(options);
    return sim.run();
}

} // namespace dmdc
