/**
 * @file
 * Ordering-oracle and litmus-corpus tests.
 *
 * Three layers:
 *  - unit tests drive the OrderingOracle hooks directly with
 *    fabricated instructions and assert each rule (local program
 *    order, external write serialization, claim cross-checks, retire
 *    monotonicity) fires exactly when it should;
 *  - integration sweeps run the real simulator under --check=oracle
 *    across every registered scheme and randomized invalidation
 *    traffic and assert zero forbidden outcomes (the pipeline is
 *    correct), plus the litmus corpus, which is a run list like any
 *    other and runs as one CampaignRunner campaign;
 *  - a mutation test injects the lsq-corrupt fault (silently dropping
 *    detected violations and commit-time replays) and asserts the
 *    oracle always catches the resulting miscompare — proof the
 *    harness would detect a real checking bug.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.hh"
#include "core/inst.hh"
#include "lsq/policy/registry.hh"
#include "sim/campaign_runner.hh"
#include "sim/fault_injector.hh"
#include "sim/run_error.hh"
#include "sim/simulator.hh"
#include "verify/coherence_agent.hh"
#include "verify/ordering_oracle.hh"

namespace dmdc
{
namespace
{

DynInst
makeMem(SeqNum seq, OpClass cls, Addr addr, unsigned size)
{
    DynInst inst;
    inst.seq = seq;
    inst.op.cls = cls;
    inst.op.effAddr = addr;
    inst.op.memSize = static_cast<std::uint8_t>(size);
    if (cls == OpClass::Load)
        inst.loadIssued = true;
    return inst;
}

OrderingOracle::Params
oracleParams(bool enforce_external = false,
             bool exempt_safe_loads = false)
{
    OrderingOracle::Params p;
    p.lineBytes = 64;
    p.enforceExternal = enforce_external;
    p.exemptSafeLoads = exempt_safe_loads;
    return p;
}

// ---------------------------------------------------------------
// unit: local rule
// ---------------------------------------------------------------

TEST(OrderingOracleUnit, CleanStoreLoadSequencePasses)
{
    OrderingOracle oracle(oracleParams());
    DynInst st = makeMem(10, OpClass::Store, 0x1000, 8);
    DynInst ld = makeMem(20, OpClass::Load, 0x1000, 8);
    oracle.storeCommitted(&st);
    oracle.loadObserved(&ld);   // sees st as every byte's writer
    oracle.loadCommitted(&ld, false);
    EXPECT_FALSE(oracle.failed()) << oracle.firstFailure();
    EXPECT_EQ(oracle.counters().loadsChecked, 1u);
    EXPECT_EQ(oracle.counters().forbiddenLocal, 0u);
}

TEST(OrderingOracleUnit, LocalRuleCatchesSkippedReplay)
{
    OrderingOracle oracle(oracleParams());
    DynInst ld = makeMem(20, OpClass::Load, 0x1000, 4);
    DynInst st = makeMem(10, OpClass::Store, 0x1000, 4);
    oracle.loadObserved(&ld);   // premature: observes pre-store memory
    oracle.storeCommitted(&st); // older store commits first (in order)
    oracle.loadCommitted(&ld, false);
    EXPECT_TRUE(oracle.failed());
    EXPECT_EQ(oracle.counters().forbiddenLocal, 1u);
    EXPECT_NE(oracle.firstFailure().find("forbidden local"),
              std::string::npos);
}

TEST(OrderingOracleUnit, PartialByteOverlapIsCaught)
{
    OrderingOracle oracle(oracleParams());
    DynInst ld = makeMem(20, OpClass::Load, 0x1000, 8);
    DynInst st = makeMem(10, OpClass::Store, 0x1004, 2);
    oracle.loadObserved(&ld);
    oracle.storeCommitted(&st); // clobbers bytes 4-5 of the load
    oracle.loadCommitted(&ld, false);
    EXPECT_TRUE(oracle.failed());
    EXPECT_EQ(oracle.counters().forbiddenLocal, 1u);
}

TEST(OrderingOracleUnit, ForwardedLoadFromYoungestOlderStorePasses)
{
    OrderingOracle oracle(oracleParams());
    DynInst st = makeMem(10, OpClass::Store, 0x2000, 8);
    DynInst ld = makeMem(20, OpClass::Load, 0x2000, 8);
    ld.forwardedFrom = 10;
    oracle.loadObserved(&ld);   // snapshot irrelevant: forwarded
    oracle.storeCommitted(&st);
    oracle.loadCommitted(&ld, false);
    EXPECT_FALSE(oracle.failed()) << oracle.firstFailure();
}

TEST(OrderingOracleUnit, ForwardedLoadFromStaleStoreIsCaught)
{
    OrderingOracle oracle(oracleParams());
    DynInst st1 = makeMem(10, OpClass::Store, 0x2000, 8);
    DynInst st2 = makeMem(15, OpClass::Store, 0x2000, 8);
    DynInst ld = makeMem(20, OpClass::Load, 0x2000, 8);
    ld.forwardedFrom = 10;      // forwarded past the younger st2
    oracle.loadObserved(&ld);
    oracle.storeCommitted(&st1);
    oracle.storeCommitted(&st2);
    oracle.loadCommitted(&ld, false);
    EXPECT_TRUE(oracle.failed());
    EXPECT_EQ(oracle.counters().forbiddenLocal, 1u);
}

TEST(OrderingOracleUnit, CommitWithoutObservationIsCaught)
{
    OrderingOracle oracle(oracleParams());
    DynInst ld = makeMem(20, OpClass::Load, 0x1000, 4);
    oracle.loadCommitted(&ld, false);
    EXPECT_TRUE(oracle.failed());
    EXPECT_NE(oracle.firstFailure().find("without an observed value"),
              std::string::npos);
}

TEST(OrderingOracleUnit, SquashedRecordIsReplacedCleanly)
{
    OrderingOracle oracle(oracleParams());
    DynInst wrong = makeMem(20, OpClass::Load, 0x1000, 4);
    oracle.loadObserved(&wrong);
    oracle.squashFrom(20);
    DynInst st = makeMem(10, OpClass::Store, 0x1000, 4);
    oracle.storeCommitted(&st);
    DynInst redo = makeMem(20, OpClass::Load, 0x1000, 4);
    oracle.loadObserved(&redo); // refetched path observes the store
    oracle.loadCommitted(&redo, false);
    EXPECT_FALSE(oracle.failed()) << oracle.firstFailure();
}

// ---------------------------------------------------------------
// unit: external rule
// ---------------------------------------------------------------

TEST(OrderingOracleUnit, StaleCommitCountedButAllowedOncePerVersion)
{
    OrderingOracle oracle(oracleParams(true, false));
    DynInst a = makeMem(10, OpClass::Load, 0x3000, 4);
    DynInst b = makeMem(12, OpClass::Load, 0x3000, 4);
    oracle.loadObserved(&a);
    oracle.loadObserved(&b);
    oracle.invalidationDelivered(0x3000);
    oracle.loadCommitted(&a, false); // one stale commit: permitted
    EXPECT_FALSE(oracle.failed()) << oracle.firstFailure();
    EXPECT_EQ(oracle.counters().staleCommits, 1u);
    oracle.loadCommitted(&b, false); // second on the same chunk+version
    EXPECT_TRUE(oracle.failed());
    EXPECT_EQ(oracle.counters().staleCommits, 2u);
    EXPECT_EQ(oracle.counters().forbiddenExternal, 1u);
}

TEST(OrderingOracleUnit, FreshDeliveryRearmsTheAllowance)
{
    OrderingOracle oracle(oracleParams(true, false));
    DynInst a = makeMem(10, OpClass::Load, 0x3000, 4);
    oracle.loadObserved(&a);
    oracle.invalidationDelivered(0x3000);
    oracle.loadCommitted(&a, false);
    // A second delivery starts a new version: one more stale commit
    // is permitted on the same chunk.
    DynInst b = makeMem(12, OpClass::Load, 0x3000, 4);
    oracle.loadObserved(&b);
    oracle.invalidationDelivered(0x3000);
    oracle.loadCommitted(&b, false);
    EXPECT_FALSE(oracle.failed()) << oracle.firstFailure();
    EXPECT_EQ(oracle.counters().staleCommits, 2u);
}

TEST(OrderingOracleUnit, DistinctChunksHaveIndependentAllowances)
{
    OrderingOracle oracle(oracleParams(true, false));
    DynInst a = makeMem(10, OpClass::Load, 0x3000, 2);
    DynInst b = makeMem(12, OpClass::Load, 0x3008, 2);
    oracle.loadObserved(&a);
    oracle.loadObserved(&b);
    oracle.invalidationDelivered(0x3000); // same line, both chunks
    oracle.loadCommitted(&a, false);
    oracle.loadCommitted(&b, false);
    EXPECT_FALSE(oracle.failed()) << oracle.firstFailure();
    EXPECT_EQ(oracle.counters().staleCommits, 2u);
}

TEST(OrderingOracleUnit, SafeLoadExemptWhenPolicyExempts)
{
    OrderingOracle oracle(oracleParams(true, true));
    DynInst a = makeMem(10, OpClass::Load, 0x3000, 4);
    DynInst b = makeMem(12, OpClass::Load, 0x3000, 4);
    a.safeLoad = b.safeLoad = true;
    oracle.loadObserved(&a);
    oracle.loadObserved(&b);
    oracle.invalidationDelivered(0x3000);
    oracle.loadCommitted(&a, false);
    oracle.loadCommitted(&b, false); // both exempt: never forbidden
    EXPECT_FALSE(oracle.failed()) << oracle.firstFailure();
    EXPECT_EQ(oracle.counters().staleCommits, 2u);
    EXPECT_EQ(oracle.counters().exemptStale, 2u);
}

TEST(OrderingOracleUnit, NonEnforcingContractOnlyCounts)
{
    OrderingOracle oracle(oracleParams(false, false));
    DynInst a = makeMem(10, OpClass::Load, 0x3000, 4);
    DynInst b = makeMem(12, OpClass::Load, 0x3000, 4);
    oracle.loadObserved(&a);
    oracle.loadObserved(&b);
    oracle.invalidationDelivered(0x3000);
    oracle.loadCommitted(&a, false);
    oracle.loadCommitted(&b, false);
    EXPECT_FALSE(oracle.failed()) << oracle.firstFailure();
    EXPECT_EQ(oracle.counters().staleCommits, 2u);
    EXPECT_EQ(oracle.counters().forbiddenExternal, 0u);
}

// ---------------------------------------------------------------
// unit: claim cross-checks and retire order
// ---------------------------------------------------------------

TEST(OrderingOracleUnit, GroundTruthBackedClaimPasses)
{
    OrderingOracle oracle(oracleParams());
    DynInst ld = makeMem(20, OpClass::Load, 0x1000, 4);
    oracle.groundTruthViolation(20, 10);
    oracle.policyClaimedViolation(&ld);
    EXPECT_FALSE(oracle.failed()) << oracle.firstFailure();
    EXPECT_EQ(oracle.counters().claimsChecked, 1u);
    EXPECT_EQ(oracle.counters().bogusClaims, 0u);
}

TEST(OrderingOracleUnit, BogusCommitTimeClaimIsCaught)
{
    OrderingOracle oracle(oracleParams());
    DynInst ld = makeMem(20, OpClass::Load, 0x1000, 4);
    oracle.policyClaimedViolation(&ld);
    EXPECT_TRUE(oracle.failed());
    EXPECT_EQ(oracle.counters().bogusClaims, 1u);
}

TEST(OrderingOracleUnit, StructuralClaimChecksAgeAndOverlap)
{
    OrderingOracle oracle(oracleParams());
    DynInst ld = makeMem(20, OpClass::Load, 0x1000, 4);
    DynInst older = makeMem(10, OpClass::Store, 0x1002, 2);
    oracle.policyClaimedViolation(&ld, &older);
    EXPECT_FALSE(oracle.failed()) << oracle.firstFailure();

    DynInst younger = makeMem(30, OpClass::Store, 0x1000, 4);
    oracle.policyClaimedViolation(&ld, &younger);
    EXPECT_TRUE(oracle.failed());
    EXPECT_EQ(oracle.counters().bogusClaims, 1u);
}

TEST(OrderingOracleUnit, StructuralClaimRejectsDisjointRanges)
{
    OrderingOracle oracle(oracleParams());
    DynInst ld = makeMem(20, OpClass::Load, 0x1000, 4);
    DynInst st = makeMem(10, OpClass::Store, 0x1004, 4);
    oracle.policyClaimedViolation(&ld, &st);
    EXPECT_TRUE(oracle.failed());
}

TEST(OrderingOracleUnit, OutOfOrderRetireIsCaught)
{
    OrderingOracle oracle(oracleParams());
    DynInst a = makeMem(10, OpClass::Load, 0x1000, 4);
    DynInst b = makeMem(9, OpClass::Load, 0x1000, 4);
    oracle.retired(a);
    EXPECT_FALSE(oracle.failed());
    oracle.retired(b);
    EXPECT_TRUE(oracle.failed());
    EXPECT_NE(oracle.firstFailure().find("out-of-order retire"),
              std::string::npos);
}

// ---------------------------------------------------------------
// coherence agent
// ---------------------------------------------------------------

TEST(CoherenceAgentTest, SpecValidationAcceptsAndRejects)
{
    std::string err;
    EXPECT_TRUE(CoherenceAgent::validateSpec("mixed", &err));
    EXPECT_TRUE(CoherenceAgent::validateSpec("producer-consumer", &err));
    EXPECT_TRUE(
        CoherenceAgent::validateSpec("lock-handoff:period=200", &err));
    EXPECT_FALSE(CoherenceAgent::validateSpec("tso", &err));
    EXPECT_FALSE(CoherenceAgent::validateSpec("mixed:period=0", &err));
    EXPECT_FALSE(CoherenceAgent::validateSpec("mixed:period=x", &err));
    EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------
// integration: the real pipeline never commits a forbidden outcome
// ---------------------------------------------------------------

SimOptions
checkedOptions(const std::string &bench, const std::string &scheme)
{
    SimOptions opt;
    opt.benchmark = bench;
    opt.scheme = scheme;
    opt.warmupInsts = 10000;
    opt.runInsts = 60000;
    opt.check = CheckMode::Oracle;
    return opt;
}

TEST(OracleIntegration, EverySchemeCleanUnderRandomInvalidations)
{
    for (const std::string &scheme :
         DependencePolicyRegistry::instance().names()) {
        SimOptions opt = checkedOptions("gzip", scheme);
        opt.coherence = true;
        opt.invalidationsPer1kCycles = 20.0;
        Simulator sim(opt);
        SimResult r;
        ASSERT_NO_THROW(r = sim.run()) << "scheme " << scheme;
        EXPECT_GT(r.oracleLoadsChecked, 0u) << "scheme " << scheme;
        EXPECT_EQ(r.oracleForbidden, 0u) << "scheme " << scheme;
        EXPECT_EQ(r.checkMode, "oracle");
    }
}

TEST(OracleIntegration, RandomizedWorkloadSweepIsClean)
{
    // Brute-force reference replays: random (benchmark, scheme, rate,
    // knob) points, each run under the oracle's sequential replay of
    // program and coherence order.
    const std::vector<std::string> schemes =
        DependencePolicyRegistry::instance().names();
    const std::vector<std::string> benches = {"gzip", "vortex", "gcc",
                                              "perlbmk", "mcf"};
    Rng rng(0xdeadbeef);
    for (unsigned i = 0; i < 10; ++i) {
        SimOptions opt = checkedOptions(
            benches[rng.range(benches.size())],
            schemes[rng.range(schemes.size())]);
        opt.coherence = rng.chance(0.5);
        opt.safeLoads = rng.chance(0.5);
        opt.invalidationsPer1kCycles =
            rng.chance(0.5) ? 50.0 : 5.0;
        opt.configLevel = 1 + rng.range(3);
        SCOPED_TRACE(opt.benchmark + "/" + opt.scheme + "/cfg" +
                     std::to_string(opt.configLevel));
        Simulator sim(opt);
        SimResult r;
        ASSERT_NO_THROW(r = sim.run());
        EXPECT_EQ(r.oracleForbidden, 0u);
        EXPECT_GT(r.oracleLoadsChecked, 0u);
    }
}

TEST(OracleIntegration, CheckOffAttachesNothing)
{
    SimOptions opt = checkedOptions("gzip", "dmdc-global");
    opt.check = CheckMode::Off;
    Simulator sim(opt);
    EXPECT_EQ(sim.oracle(), nullptr);
    const SimResult r = sim.run();
    EXPECT_EQ(r.checkMode, "off");
    EXPECT_EQ(r.oracleLoadsChecked, 0u);
    EXPECT_EQ(r.oracleForbidden, 0u);
}

TEST(OracleIntegration, CheckedRunMatchesUncheckedTiming)
{
    // The oracle observes; it must never perturb the simulation.
    SimOptions opt = checkedOptions("vortex", "dmdc-global");
    opt.coherence = true;
    opt.invalidationsPer1kCycles = 10.0;
    const SimResult checked = runSimulation(opt);
    opt.check = CheckMode::Off;
    const SimResult plain = runSimulation(opt);
    EXPECT_EQ(checked.cycles, plain.cycles);
    EXPECT_EQ(checked.ipc, plain.ipc);
    EXPECT_EQ(checked.dmdcReplays, plain.dmdcReplays);
    EXPECT_EQ(checked.trueViolations, plain.trueViolations);
}

// ---------------------------------------------------------------
// litmus corpus
// ---------------------------------------------------------------

/** One litmus case: @p agent's scripted coherence traffic on
 *  @p bench under @p scheme, checked by the ordering oracle. */
SimOptions
litmusOptions(const std::string &bench, const std::string &scheme,
              const std::string &agent, bool coherence = true)
{
    SimOptions opt;
    opt.benchmark = bench;
    opt.scheme = scheme;
    opt.coherence = coherence;
    opt.warmupInsts = 20000;
    opt.runInsts = 120000;
    opt.check = CheckMode::Litmus;
    opt.coherenceAgent = agent;
    return opt;
}

/**
 * The corpus: every registered scheme against the mixed rotation (the
 * broad no-forbidden-outcome sweep); each pure synchronization idiom
 * against the coherence-enforcing table and queue variants and the
 * conventional baseline, on a second benchmark for access-pattern
 * diversity; and the coherence extension off, where stale commits are
 * merely counted, never forbidden.
 */
std::vector<SimOptions>
litmusCorpus()
{
    std::vector<SimOptions> runs;
    for (const std::string &scheme :
         DependencePolicyRegistry::instance().names())
        runs.push_back(litmusOptions("gzip", scheme, "mixed"));
    for (const char *family :
         {"producer-consumer", "lock-handoff", "false-sharing"}) {
        for (const char *scheme : {"baseline", "dmdc-global",
                                   "dmdc-queue"})
            runs.push_back(litmusOptions("mcf", scheme, family));
    }
    runs.push_back(litmusOptions("gzip", "dmdc-global", "false-sharing",
                                 false));
    return runs;
}

TEST(LitmusSuite, CorpusHasNoForbiddenOutcomes)
{
    const std::vector<SimOptions> runs = litmusCorpus();
    CampaignConfig cfg;
    cfg.useCache = false;
    CampaignRunner runner(cfg);
    const CampaignResult cr = runner.runChecked(runs);
    ASSERT_EQ(cr.results.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        // A forbidden outcome fails the run as RunError(SimInvariant);
        // the delivery and load counts rule out a vacuous pass by an
        // inert agent.
        const std::string name = runs[i].scheme + "/" +
            runs[i].coherenceAgent +
            (runs[i].coherence ? "" : "/no-coherence");
        const SimResult &r = cr.results[i];
        EXPECT_TRUE(cr.outcomes[i].ok())
            << name << ": " << cr.outcomes[i].error;
        EXPECT_GT(r.agentInvalidations, 0u) << name;
        EXPECT_GT(r.oracleLoadsChecked, 0u) << name;
        EXPECT_EQ(r.oracleForbidden, 0u) << name;
    }
}

TEST(LitmusSuite, ScriptedFamiliesAreDeterministic)
{
    const SimOptions opt =
        litmusOptions("gzip", "dmdc-global", "producer-consumer");
    SimResult a, b;
    ASSERT_NO_THROW(a = runSimulation(opt));
    ASSERT_NO_THROW(b = runSimulation(opt));
    EXPECT_GT(a.agentInvalidations, 0u);
    EXPECT_GT(a.oracleLoadsChecked, 0u);
    EXPECT_EQ(a.agentInvalidations, b.agentInvalidations);
    EXPECT_EQ(a.oracleStaleCommits, b.oracleStaleCommits);
    EXPECT_EQ(a.oracleLoadsChecked, b.oracleLoadsChecked);
}

// ---------------------------------------------------------------
// mutation: the oracle must catch an injected checking bug
// ---------------------------------------------------------------

class LsqCorruptMutation : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        saved_ = FaultInjector::global().spec();
        FaultSpec spec;
        spec.lsqCorruptP = 1.0;
        FaultInjector::global().configure(spec);
    }
    void TearDown() override
    {
        FaultInjector::global().configure(saved_);
    }

  private:
    FaultSpec saved_;
};

void
expectOracleCatches(const std::string &scheme)
{
    SimOptions opt;
    opt.benchmark = "gzip"; // reliably has true violations
    opt.scheme = scheme;
    opt.warmupInsts = 20000;
    opt.runInsts = 120000;
    opt.check = CheckMode::Oracle;
    try {
        runSimulation(opt);
        FAIL() << scheme
               << ": corrupted checking went undetected by the oracle";
    } catch (const RunError &e) {
        EXPECT_EQ(e.category(), RunErrorCategory::SimInvariant)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("ordering oracle"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(LsqCorruptMutation, OracleCatchesCorruptResolveTimeChecking)
{
    // baseline detects violations at store resolve; the corruption
    // swallows the detection, so the victim commits a stale value.
    expectOracleCatches("baseline");
}

TEST_F(LsqCorruptMutation, OracleCatchesCorruptCommitTimeChecking)
{
    // dmdc replays at commit; the corruption swallows the replay and
    // the ghost flag, blinding the pipeline's own panic check.
    expectOracleCatches("dmdc-global");
}

TEST_F(LsqCorruptMutation, UncorruptedRunStillPassesUnderOtherSpec)
{
    // Same spec object, but a scheme without violations in the window
    // must not produce false oracle failures just because the
    // corruption flag is armed.
    SimOptions opt;
    opt.benchmark = "mcf"; // no premature loads in this window
    opt.scheme = "baseline";
    opt.warmupInsts = 10000;
    opt.runInsts = 60000;
    opt.check = CheckMode::Oracle;
    SimResult r;
    ASSERT_NO_THROW(r = runSimulation(opt));
    EXPECT_EQ(r.oracleForbidden, 0u);
}

} // namespace
} // namespace dmdc
