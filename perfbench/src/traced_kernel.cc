/**
 * @file
 * Traced kernel run.
 */

#include "traced_kernel.hh"

#include <memory>
#include <stdexcept>

#include "energy/energy_model.hh"
#include "reference.hh"
#include "sim/machine_config.hh"
#include "trace/spec_suite.hh"

namespace perfbench
{

TracedKernelRun
runTracedKernel(const dmdc::SimOptions &opt, std::uint64_t span_id)
{
    if (opt.invalidationsPer1kCycles != 0.0 ||
        opt.check != dmdc::CheckMode::Off || !opt.observers.empty() ||
        opt.tweak || !opt.coherenceAgent.empty())
        throw std::invalid_argument(
            "traced runs support only plain options");

    TracedKernelRun out;
    auto open_span = [&](const char *name, int parent) {
        out.spans.push_back({name, nowNs(), 0, parent, span_id});
        return static_cast<int>(out.spans.size() - 1);
    };
    auto close_span = [&](int idx) {
        out.spans[static_cast<std::size_t>(idx)].endNs = nowNs();
        const Span &s = out.spans[static_cast<std::size_t>(idx)];
        return s.endNs - s.startNs;
    };

    const int root = open_span("kernel.run", -1);

    // ---- build: the parameter set-up of Simulator's constructor ----
    const int build = open_span("sim.build", root);
    dmdc::validateSimOptions(opt);
    dmdc::CoreParams params = dmdc::makeMachineConfig(opt.configLevel);
    dmdc::applyScheme(params, opt.scheme, opt.coherence, opt.safeLoads);
    params.lsq.dmdc.numYlaQw = opt.numYlaQw;
    if (opt.tableEntriesOverride)
        params.lsq.dmdc.tableEntries = opt.tableEntriesOverride;
    params.lsq.dmdc.queueEntries = opt.queueEntries;
    params.lsq.sqFilter = opt.sqFilter;

    int s = open_span("trace.build", build);
    std::unique_ptr<dmdc::SyntheticWorkload> inner =
        dmdc::makeSpecWorkload(opt.benchmark);
    out.traceBuildNs = close_span(s);
    TimingWorkload workload(*inner);

    s = open_span("core.build", build);
    auto pipe = std::make_unique<dmdc::Pipeline>(params, workload);
    out.coreBuildNs = close_span(s);
    close_span(build);

    // ---- the run loop of Simulator::run, with no external traffic,
    // no injected hang and no wall-clock deadline ----
    const std::uint64_t stall_limit = opt.stallCycleLimit;
    auto run_phase = [&](std::uint64_t insts) {
        const std::uint64_t target = pipe->committed() + insts;
        std::uint64_t last_committed = pipe->committed();
        std::uint64_t stall_cycles = 0;
        while (pipe->committed() < target) {
            const std::int64_t child0 = workload.totalNs();
            const std::int64_t t0 = nowNs();
            const unsigned progress = pipe->tick();
            out.tick.add(t0, nowNs());
            out.tickChildNs += workload.totalNs() - child0;

            if (pipe->committed() == last_committed) {
                if (stall_limit && ++stall_cycles > stall_limit)
                    throw std::runtime_error(
                        "traced run stalled: no commit progress in " +
                        std::to_string(stall_limit) + " cycles");
            } else {
                stall_cycles = 0;
                last_committed = pipe->committed();
            }
            if (progress != 0)
                continue;
            ++out.emptyTicks;
            if (pipe->committed() >= target)
                continue;
            const std::int64_t e0 = nowNs();
            const dmdc::Cycle wake = pipe->nextEventCycle();
            out.nextEvent.add(e0, nowNs());
            dmdc::Cycle n =
                wake > pipe->now() + 1 ? wake - pipe->now() - 1 : 0;
            if (stall_limit && n > stall_limit - stall_cycles)
                n = stall_limit - stall_cycles;
            if (n > 0) {
                const std::int64_t k0 = nowNs();
                pipe->skipIdleCycles(n);
                out.skip.add(k0, nowNs());
                stall_cycles += n;
                out.skippedCycles += n;
            }
        }
    };

    s = open_span("sim.warmup", root);
    run_phase(opt.warmupInsts);
    close_span(s);
    out.warmupCommitted = pipe->committed();
    pipe->resetStats();
    s = open_span("sim.measure", root);
    run_phase(opt.runInsts);
    close_span(s);
    out.allCycles = pipe->now();

    // ---- collect, as Simulator::run does ----
    dmdc::SimResult r;
    const dmdc::PipelineStats &ps = pipe->stats();
    r.instructions = ps.committedInsts.value();
    r.cycles = ps.cycles.value();
    r.baselineReplays = ps.baselineReplays.value();
    r.dmdcReplays = ps.dmdcReplays.value();
    r.ageTableReplays = ps.ageTableReplays.value();
    if (const dmdc::DmdcEngine *engine = pipe->lsq().dmdc()) {
        const auto &ds = engine->stats();
        r.trueReplays = ds.trueReplays.value();
        r.falseAddrX = ds.falseAddrX.value();
        r.falseAddrY = ds.falseAddrY.value();
        r.falseHashBefore = ds.falseHashBefore.value();
        r.falseHashX = ds.falseHashX.value();
        r.falseHashY = ds.falseHashY.value();
        r.falseOverflow = ds.falseOverflow.value();
    }
    s = open_span("energy.compute", root);
    dmdc::EnergyModel energy_model(params);
    r.energy = energy_model.compute(*pipe);
    out.energyNs = close_span(s);

    out.committed = r.instructions;
    out.cycles = r.cycles;
    out.pinned = pinnedValues(r, out.warmupCommitted);

    const auto &act = pipe->lsq().activity();
    out.op = workload.opClock();
    out.wrongPath = workload.wrongPathClock();
    out.dispatched = ps.dispatched.value();
    out.issued = ps.issued.value();
    out.mispredicts = ps.branchMispredicts.value();
    out.l1dHits = pipe->mem().l1d().hits();
    out.l1dMisses = pipe->mem().l1d().misses();
    out.l2Hits = pipe->mem().l2().hits();
    out.l2Misses = pipe->mem().l2().misses();
    out.lqSearches = act.lqSearches.value();
    out.lqFiltered = act.lqSearchesFiltered.value();
    out.sqSearches = act.sqSearches.value();
    out.loadRejections = ps.loadRejections.value();
    out.replays = r.dmdcReplays + r.baselineReplays + r.ageTableReplays;

    out.totalNs = close_span(root);
    return out;
}

} // namespace perfbench
