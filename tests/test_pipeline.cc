/**
 * @file
 * Integration tests of the full pipeline, driven by the simulator's
 * RunLoop: forward progress, determinism, stat consistency, squash
 * correctness, and the cross-scheme safety property (enforced by a
 * built-in panic, so merely running is a check).
 */

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "sim/machine_config.hh"
#include "sim/simulator.hh"
#include "trace/spec_suite.hh"

namespace dmdc
{
namespace
{

CoreParams
testParams(const std::string &scheme = "baseline")
{
    CoreParams p = makeMachineConfig(2);
    applyScheme(p, scheme);
    return p;
}

TEST(Pipeline, MakesForwardProgress)
{
    auto w = makeSpecWorkload("gzip");
    Pipeline pipe(testParams(), *w);
    RunLoop(pipe).run(20000);
    EXPECT_GE(pipe.committed(), 20000u);
    EXPECT_GT(pipe.ipc(), 0.1);
    EXPECT_LT(pipe.ipc(), 8.0);
}

TEST(Pipeline, DeterministicAcrossRuns)
{
    auto run_once = [] {
        auto w = makeSpecWorkload("vpr");
        Pipeline pipe(testParams(), *w);
        RunLoop(pipe).run(15000);
        return pipe.now();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Pipeline, StatConsistency)
{
    auto w = makeSpecWorkload("gcc");
    Pipeline pipe(testParams(), *w);
    RunLoop(pipe).run(30000);
    const PipelineStats &s = pipe.stats();
    // Class counts are bounded by total commits.
    EXPECT_LE(s.committedLoads.value() + s.committedStores.value() +
                  s.committedBranches.value(),
              s.committedInsts.value());
    // Everything committed was dispatched and issued at least once.
    EXPECT_GE(s.dispatched.value(), s.committedInsts.value());
    EXPECT_GE(s.issued.value(), s.committedInsts.value());
    // Mispredicts happened and are a minority of branches.
    EXPECT_GT(s.branchMispredicts.value(), 0u);
    EXPECT_LT(s.branchMispredicts.value(),
              s.committedBranches.value() / 4);
}

TEST(Pipeline, CommittedStreamMatchesArchitecturalTrace)
{
    // The committed loads/stores/branches per instruction must match
    // the workload's architectural mix: commits never include
    // wrong-path work.
    auto w = makeSpecWorkload("bzip2");
    auto w_ref = makeSpecWorkload("bzip2");
    Pipeline pipe(testParams(), *w);
    const std::uint64_t n = 20000;
    RunLoop(pipe).run(n);

    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        loads += w_ref->op(i).isLoad();
        stores += w_ref->op(i).isStore();
    }
    // The pipeline may commit slightly more than n; allow the width.
    EXPECT_NEAR(static_cast<double>(pipe.stats().committedLoads.value()),
                static_cast<double>(loads), 16.0);
    EXPECT_NEAR(
        static_cast<double>(pipe.stats().committedStores.value()),
        static_cast<double>(stores), 16.0);
}

TEST(Pipeline, ResetStatsZeroesCounters)
{
    auto w = makeSpecWorkload("mcf");
    Pipeline pipe(testParams(), *w);
    RunLoop loop(pipe);
    loop.run(5000);
    EXPECT_GT(pipe.committed(), 0u);
    pipe.resetStats();
    EXPECT_EQ(pipe.committed(), 0u);
    EXPECT_EQ(pipe.stats().cycles.value(), 0u);
    loop.run(5000);
    EXPECT_GE(pipe.committed(), 5000u);
}

TEST(Pipeline, BaselineDetectsViolationsWhenPresent)
{
    // Across a handful of benchmarks, the ground-truth checker should
    // find at least some true violations in baseline mode, and each
    // triggers a replay (plus wrong-path ones).
    std::uint64_t total_violations = 0;
    for (const char *name : {"gcc", "vortex", "mcf"}) {
        auto w = makeSpecWorkload(name);
        Pipeline pipe(testParams(), *w);
        RunLoop(pipe).run(60000);
        total_violations +=
            pipe.lsq().activity().trueViolationsDetected.value();
        EXPECT_GE(pipe.stats().baselineReplays.value(),
                  pipe.lsq().activity().trueViolationsDetected.value())
            << name;
    }
    EXPECT_GT(total_violations, 0u);
}

TEST(Pipeline, SpeculativeLoadsObserved)
{
    auto w = makeSpecWorkload("mcf");
    Pipeline pipe(testParams(), *w);
    RunLoop(pipe).run(30000);
    // Loads do issue past unresolved stores (the paper's premise).
    EXPECT_GT(pipe.stats().speculativeLoads.value(), 100u);
}

TEST(Pipeline, ForwardingAndRejectionHappen)
{
    auto w = makeSpecWorkload("vortex");
    Pipeline pipe(testParams(), *w);
    RunLoop(pipe).run(60000);
    EXPECT_GT(pipe.stats().loadForwards.value(), 0u);
    EXPECT_GT(pipe.stats().loadRejections.value(), 0u);
}

TEST(Pipeline, ExternalInvalidationIsHandledByAllSchemes)
{
    for (const char *scheme : {"baseline", "dmdc-global"}) {
        auto w = makeSpecWorkload("swim");
        CoreParams params = makeMachineConfig(1);
        applyScheme(params, scheme, /*coherence=*/true);
        Pipeline pipe(params, *w);
        RunLoop loop(pipe);
        loop.run(2000);
        for (int i = 0; i < 200; ++i) {
            pipe.externalInvalidation(0x10000000 + i * 64);
            pipe.tick();
        }
        loop.run(5000);
        EXPECT_GE(pipe.committed(), 7000u);
    }
}

TEST(Pipeline, RunLoopReproducesSimulatorRun)
{
    // A hand-built pipeline driven by RunLoop is the same run
    // Simulator::run() performs for the same options.
    SimOptions opt;
    opt.benchmark = "gzip";
    opt.scheme = "dmdc-global";
    opt.warmupInsts = 2000;
    opt.runInsts = 20000;
    const SimResult r = runSimulation(opt);

    auto w = makeSpecWorkload(opt.benchmark);
    Pipeline pipe(testParams(opt.scheme), *w);
    RunLoop loop(pipe);
    loop.run(opt.warmupInsts);
    pipe.resetStats();
    loop.run(opt.runInsts);
    EXPECT_EQ(pipe.stats().committedInsts.value(), r.instructions);
    EXPECT_EQ(pipe.stats().cycles.value(), r.cycles);
    EXPECT_EQ(pipe.stats().dmdcReplays.value(), r.dmdcReplays);
}

// ----------------------------------------------------------------
// Property sweep: every (scheme, config) combination runs cleanly,
// commits the requested work, and preserves the safety property
// (enforced by the built-in panic).
// ----------------------------------------------------------------

struct SweepParam
{
    std::string scheme;
    unsigned config;
    const char *benchmark;
};

class SchemeSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(SchemeSweep, RunsCleanAndConsistent)
{
    const SweepParam &sp = GetParam();
    auto w = makeSpecWorkload(sp.benchmark);
    CoreParams params = makeMachineConfig(sp.config);
    applyScheme(params, sp.scheme);
    Pipeline pipe(params, *w);
    RunLoop(pipe).run(40000);

    EXPECT_GE(pipe.committed(), 40000u);
    EXPECT_GT(pipe.ipc(), 0.05);

    if (sp.scheme == "baseline") {
        // Conventional: every resolved store searched the LQ.
        EXPECT_GT(pipe.lsq().activity().lqSearches.value(), 0u);
        EXPECT_EQ(pipe.lsq().activity().lqSearchesFiltered.value(),
                  0u);
    }
    if (sp.scheme == "yla") {
        // Filtering happened and nothing escaped: filtered + searched
        // equals all resolved stores (tracked via YLA reads).
        const auto &a = pipe.lsq().activity();
        EXPECT_GT(a.lqSearchesFiltered.value(), 0u);
        EXPECT_EQ(a.lqSearches.value() + a.lqSearchesFiltered.value(),
                  a.ylaReads.value());
    }
    if (sp.scheme == "dmdc-global" ||
        sp.scheme == "dmdc-local" ||
        sp.scheme == "dmdc-queue") {
        // No associative LQ searches at all under DMDC.
        EXPECT_EQ(pipe.lsq().activity().lqSearches.value(), 0u);
        ASSERT_NE(pipe.lsq().dmdc(), nullptr);
        const auto &ds = pipe.lsq().dmdc()->stats();
        EXPECT_GT(ds.safeStores.value(), 0u);
        // Table writes count committed unsafe stores; unsafe_stores
        // counts resolves, which include re-resolves after a replay.
        EXPECT_GT(ds.tableWrites.value(), 0u);
        EXPECT_LE(ds.tableWrites.value(), ds.unsafeStores.value());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeSweep,
    ::testing::Values(
        SweepParam{"baseline", 1, "gzip"},
        SweepParam{"baseline", 3, "swim"},
        SweepParam{"yla", 2, "gzip"},
        SweepParam{"yla", 1, "art"},
        SweepParam{"dmdc-global", 1, "gzip"},
        SweepParam{"dmdc-global", 2, "mcf"},
        SweepParam{"dmdc-global", 3, "swim"},
        SweepParam{"dmdc-local", 2, "gzip"},
        SweepParam{"dmdc-local", 2, "equake"},
        SweepParam{"dmdc-queue", 2, "gzip"},
        SweepParam{"dmdc-queue", 2, "art"}),
    [](const ::testing::TestParamInfo<SweepParam> &info) {
        std::string name = info.param.scheme +
            "_c" + std::to_string(info.param.config) + "_" +
            info.param.benchmark;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

// DMDC with safe loads disabled must still be correct (and the
// replay-once guard must prevent livelock).
TEST(Pipeline, DmdcWithoutSafeLoadsStillCorrect)
{
    auto w = makeSpecWorkload("gcc");
    CoreParams params = makeMachineConfig(2);
    applyScheme(params, "dmdc-global", false, /*safe_loads=*/false);
    Pipeline pipe(params, *w);
    RunLoop(pipe).run(40000);
    EXPECT_GE(pipe.committed(), 40000u);
    EXPECT_GT(pipe.stats().dmdcReplays.value(), 0u);
}

} // namespace
} // namespace dmdc
