/**
 * @file
 * Tests of the parallel campaign engine: determinism of parallel
 * execution versus serial, the shared run queue's exactly-once
 * dispatch, on-disk run-cache behavior, the cache-bypass rules
 * for observer/tweak runs, and the journal's results.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <functional>
#include <vector>

#include "common/json.hh"
#include "lsq/lsq_unit.hh"
#include "sim/campaign.hh"
#include "sim/campaign_runner.hh"
#include "trace/spec_suite.hh"

namespace dmdc
{
namespace
{

namespace fs = std::filesystem;

/** Fresh on-disk cache directory per test, removed on teardown. */
class CampaignParallel : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cacheDir_ = fs::path(::testing::TempDir()) /
            ("dmdc_cache_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
        fs::remove_all(cacheDir_);
    }

    void TearDown() override { fs::remove_all(cacheDir_); }

    CampaignConfig
    config(unsigned jobs, bool use_cache) const
    {
        CampaignConfig cfg;
        cfg.jobs = jobs;
        cfg.useCache = use_cache;
        cfg.cacheDir = cacheDir_.string();
        return cfg;
    }

    fs::path cacheDir_;
};

/** The 6-benchmark x 3-scheme matrix the determinism tests run. */
std::vector<SimOptions>
matrix()
{
    const std::vector<std::string> benches{"gzip", "mcf",    "crafty",
                                           "swim", "ammp", "art"};
    const std::vector<std::string> schemes{"baseline",
                                      "dmdc-global",
                                      "age-table"};
    std::vector<SimOptions> runs;
    for (const std::string &s : schemes) {
        for (const std::string &b : benches) {
            SimOptions opt;
            opt.benchmark = b;
            opt.scheme = s;
            opt.warmupInsts = 2000;
            opt.runInsts = 12000;
            runs.push_back(opt);
        }
    }
    return runs;
}

/** Every field the benches consume must match bit-for-bit. */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.fp, b.fp);
    EXPECT_EQ(a.configLevel, b.configLevel);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.lqSearches, b.lqSearches);
    EXPECT_EQ(a.lqSearchesFiltered, b.lqSearchesFiltered);
    EXPECT_EQ(a.sqSearches, b.sqSearches);
    EXPECT_EQ(a.sqSearchesFiltered, b.sqSearchesFiltered);
    EXPECT_EQ(a.ageTableReplays, b.ageTableReplays);
    EXPECT_EQ(a.loadsOlderThanAllStores, b.loadsOlderThanAllStores);
    EXPECT_EQ(a.committedLoads, b.committedLoads);
    EXPECT_EQ(a.committedStores, b.committedStores);
    EXPECT_EQ(a.safeStoreFrac, b.safeStoreFrac);
    EXPECT_EQ(a.safeLoadFrac, b.safeLoadFrac);
    EXPECT_EQ(a.checkingCycleFrac, b.checkingCycleFrac);
    EXPECT_EQ(a.windowInstrs, b.windowInstrs);
    EXPECT_EQ(a.windowLoads, b.windowLoads);
    EXPECT_EQ(a.windowSafeLoads, b.windowSafeLoads);
    EXPECT_EQ(a.windowSingleStoreFrac, b.windowSingleStoreFrac);
    EXPECT_EQ(a.windowMarkedEntries, b.windowMarkedEntries);
    EXPECT_EQ(a.dmdcReplays, b.dmdcReplays);
    EXPECT_EQ(a.baselineReplays, b.baselineReplays);
    EXPECT_EQ(a.trueViolations, b.trueViolations);
    EXPECT_EQ(a.trueReplays, b.trueReplays);
    EXPECT_EQ(a.falseAddrX, b.falseAddrX);
    EXPECT_EQ(a.falseAddrY, b.falseAddrY);
    EXPECT_EQ(a.falseHashBefore, b.falseHashBefore);
    EXPECT_EQ(a.falseHashX, b.falseHashX);
    EXPECT_EQ(a.falseHashY, b.falseHashY);
    EXPECT_EQ(a.falseOverflow, b.falseOverflow);
    EXPECT_EQ(a.energy.fetch, b.energy.fetch);
    EXPECT_EQ(a.energy.bpred, b.energy.bpred);
    EXPECT_EQ(a.energy.rename, b.energy.rename);
    EXPECT_EQ(a.energy.rob, b.energy.rob);
    EXPECT_EQ(a.energy.issueQueue, b.energy.issueQueue);
    EXPECT_EQ(a.energy.regfile, b.energy.regfile);
    EXPECT_EQ(a.energy.fu, b.energy.fu);
    EXPECT_EQ(a.energy.l1d, b.energy.l1d);
    EXPECT_EQ(a.energy.l2, b.energy.l2);
    EXPECT_EQ(a.energy.clock, b.energy.clock);
    EXPECT_EQ(a.energy.lqCam, b.energy.lqCam);
    EXPECT_EQ(a.energy.sq, b.energy.sq);
    EXPECT_EQ(a.energy.yla, b.energy.yla);
    EXPECT_EQ(a.energy.checking, b.energy.checking);
}

TEST_F(CampaignParallel, ParallelMatchesSerialElementwise)
{
    const std::vector<SimOptions> runs = matrix();

    CampaignRunner serial(config(/*jobs=*/1, /*use_cache=*/false));
    CampaignRunner parallel(
        config(defaultWorkerCount(), false));

    const auto serial_res = serial.runChecked(runs).results;
    const auto parallel_res = parallel.runChecked(runs).results;

    ASSERT_EQ(serial_res.size(), runs.size());
    ASSERT_EQ(parallel_res.size(), runs.size());
    EXPECT_EQ(serial.lastStats().simulated, runs.size());
    EXPECT_EQ(parallel.lastStats().simulated, runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        SCOPED_TRACE(runs[i].benchmark + "/" +
                     runs[i].scheme.c_str());
        // Order must be preserved exactly.
        EXPECT_EQ(parallel_res[i].benchmark, runs[i].benchmark);
        expectIdentical(serial_res[i], parallel_res[i]);
    }
}

TEST_F(CampaignParallel, CacheHitsSkipSimulationAndMatch)
{
    const std::vector<SimOptions> runs = matrix();

    CampaignRunner runner(config(0, /*use_cache=*/true));
    const auto cold = runner.runChecked(runs).results;
    std::size_t simulated = runner.lastStats().simulated;
    EXPECT_EQ(simulated, runs.size());

    // Second pass, same runner: served from disk, zero simulations.
    const auto warm = runner.runChecked(runs).results;
    simulated += runner.lastStats().simulated;
    EXPECT_EQ(runner.lastStats().simulated, 0u);
    EXPECT_EQ(runner.lastStats().diskHits, runs.size());
    EXPECT_EQ(simulated, runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        expectIdentical(cold[i], warm[i]);

    // Fresh runner, same cache dir: served from disk too, still zero
    // simulations and bit-identical.
    CampaignRunner fresh(config(0, true));
    const auto disk = fresh.runChecked(runs).results;
    EXPECT_EQ(fresh.lastStats().simulated, 0u);
    EXPECT_EQ(fresh.lastStats().diskHits, runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        SCOPED_TRACE(runs[i].benchmark + "/" +
                     runs[i].scheme.c_str());
        expectIdentical(cold[i], disk[i]);
    }
}

TEST_F(CampaignParallel, DuplicateRunsSimulateOnce)
{
    SimOptions opt;
    opt.warmupInsts = 2000;
    opt.runInsts = 12000;
    std::vector<SimOptions> runs{opt, opt, opt};

    CampaignRunner runner(config(0, true));
    const auto res = runner.runChecked(runs).results;
    EXPECT_EQ(runner.lastStats().simulated, 1u);
    expectIdentical(res[0], res[1]);
    expectIdentical(res[0], res[2]);
}

TEST_F(CampaignParallel, JournalResultsRoundTripToTheReturnedResults)
{
    // A mixed campaign: a disk hit, a fresh run, its follower (a
    // duplicate in the same campaign) and a failed run. Every ok row's
    // "result" decodes to exactly the SimResult runChecked() returned,
    // and the failed row carries its error instead.
    SimOptions cached;
    cached.benchmark = "swim";
    cached.warmupInsts = 2000;
    cached.runInsts = 12000;
    SimOptions fresh = cached;
    fresh.benchmark = "mcf";
    fresh.scheme = "dmdc-global";
    SimOptions failing = cached;
    failing.configLevel = 9;
    {
        CampaignRunner warm(config(1, true));
        ASSERT_TRUE(warm.runChecked({cached}).allOk());
    }
    const std::vector<SimOptions> runs{cached, fresh, fresh, failing};

    CampaignConfig cfg = config(3, true);
    cfg.journalPath = (cacheDir_ / "journal.json").string();
    CampaignRunner runner(cfg);
    const CampaignResult cr = runner.runChecked(runs);
    EXPECT_EQ(runner.lastStats().diskHits, 1u);
    ASSERT_TRUE(cr.outcomes[0].cached);
    ASSERT_FALSE(cr.outcomes[1].cached);
    ASSERT_TRUE(cr.outcomes[2].cached);
    ASSERT_EQ(cr.outcomes[3].status, RunStatus::Failed);

    std::ifstream is(cfg.journalPath);
    std::stringstream text;
    text << is.rdbuf();
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(text.str(), doc, err)) << err;
    const JsonValue *rows = doc.find("results");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->items.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        SCOPED_TRACE(i);
        const JsonValue &row = rows->items[i];
        ASSERT_NE(row.find("run"), nullptr);
        EXPECT_EQ(row.find("run")->text, runIdentity(runs[i]));
        EXPECT_EQ(row.find("status")->text,
                  runStatusName(cr.outcomes[i].status));
        const JsonValue *result = row.find("result");
        if (!cr.outcomes[i].ok()) {
            EXPECT_EQ(result, nullptr);
            EXPECT_EQ(row.find("error")->text, cr.outcomes[i].error);
            continue;
        }
        ASSERT_NE(result, nullptr);
        SimResult decoded;
        ASSERT_TRUE(readSimResultJson(*result, decoded));
        expectIdentical(decoded, cr.results[i]);
    }
}

TEST_F(CampaignParallel, TweakRunsBypassCache)
{
    SimOptions opt;
    opt.warmupInsts = 2000;
    opt.runInsts = 12000;
    opt.tweak = [](CoreParams &) {};

    EXPECT_FALSE(cacheableOptions(opt));

    CampaignRunner runner(config(0, true));
    ASSERT_TRUE(runner.runChecked({opt}).allOk());
    std::size_t simulated = runner.lastStats().simulated;
    EXPECT_EQ(simulated, 1u);
    EXPECT_EQ(runner.lastStats().uncacheable, 1u);
    ASSERT_TRUE(runner.runChecked({opt}).allOk());
    simulated += runner.lastStats().simulated;
    // Re-simulated, never served from cache.
    EXPECT_EQ(runner.lastStats().simulated, 1u);
    EXPECT_EQ(simulated, 2u);
    EXPECT_TRUE(!fs::exists(cacheDir_) || fs::is_empty(cacheDir_));
}

TEST_F(CampaignParallel, ObserverRunsBypassCache)
{
    YlaObserver obs("yla-8", 8, quadWordBytes);
    SimOptions opt;
    opt.warmupInsts = 2000;
    opt.runInsts = 12000;
    opt.observers.push_back(&obs);

    EXPECT_FALSE(cacheableOptions(opt));

    CampaignRunner runner(config(0, true));
    ASSERT_TRUE(runner.runChecked({opt}).allOk());
    std::size_t simulated = runner.lastStats().simulated;
    const std::uint64_t stores_first = obs.storesObserved();
    EXPECT_GT(stores_first, 0u);
    EXPECT_EQ(runner.lastStats().uncacheable, 1u);

    ASSERT_TRUE(runner.runChecked({opt}).allOk());
    simulated += runner.lastStats().simulated;
    EXPECT_EQ(runner.lastStats().simulated, 1u);
    EXPECT_EQ(simulated, 2u);
    // The observer really saw the second simulation too.
    EXPECT_EQ(obs.storesObserved(), 2 * stores_first);
}

TEST_F(CampaignParallel, SharedQueueRunsEachRunExactlyOnce)
{
    // Distinct uncacheable runs with mixed budgets, so the LPT queue
    // order differs from the list order. Each tweak counts its own
    // run's simulations.
    const std::vector<std::string> &names = specAllNames();
    constexpr std::size_t kRuns = 24;
    ASSERT_GE(names.size(), kRuns);
    std::vector<std::atomic<int>> simulations(kRuns);
    std::vector<SimOptions> runs;
    for (std::size_t i = 0; i < kRuns; ++i) {
        SimOptions opt;
        opt.benchmark = names[i];
        opt.warmupInsts = 1000;
        opt.runInsts = 2000 + 1000 * (i % 5);
        std::atomic<int> &count = simulations[i];
        opt.tweak = [&count](CoreParams &) { ++count; };
        runs.push_back(opt);
    }

    CampaignRunner runner(config(/*jobs=*/4, /*use_cache=*/true));
    const CampaignResult cr = runner.runChecked(runs);
    EXPECT_TRUE(cr.allOk());
    EXPECT_EQ(runner.lastStats().simulated, kRuns);
    EXPECT_EQ(runner.lastStats().uncacheable, kRuns);
    for (std::size_t i = 0; i < kRuns; ++i) {
        EXPECT_EQ(simulations[i].load(), 1) << "run " << i;
        EXPECT_EQ(cr.results[i].benchmark, runs[i].benchmark);
    }
}

TEST_F(CampaignParallel, CacheKeyCoversKnobs)
{
    SimOptions a;
    a.benchmark = "gzip";
    // The key is the run identity behind a version and source prefix;
    // its bytes are what existing cache entries are filed under.
    EXPECT_EQ(runIdentity(a),
              "bench=gzip|config=2|scheme=baseline|warmup=100000"
              "|insts=1000000|inv=0|coherence=0|safe_loads=1"
              "|sq_filter=0|yla_qw=8|table=0|queue=16");
    EXPECT_EQ(cacheKey(a), "dmdc-cache-v" +
                               std::to_string(kCacheFormatVersion) +
                               "|src=" + policySourceFingerprint() +
                               "|" + runIdentity(a));

    const std::vector<std::function<void(SimOptions &)>> changes = {
        [](SimOptions &o) { o.benchmark = "swim"; },
        [](SimOptions &o) { o.configLevel = 3; },
        [](SimOptions &o) { o.scheme = "dmdc-local"; },
        [](SimOptions &o) { o.warmupInsts += 1; },
        [](SimOptions &o) { o.runInsts += 1; },
        [](SimOptions &o) { o.invalidationsPer1kCycles = 0.5; },
        [](SimOptions &o) { o.coherence = !o.coherence; },
        [](SimOptions &o) { o.safeLoads = !o.safeLoads; },
        [](SimOptions &o) { o.sqFilter = !o.sqFilter; },
        [](SimOptions &o) { o.numYlaQw = 4; },
        [](SimOptions &o) { o.tableEntriesOverride = 64; },
        [](SimOptions &o) { o.queueEntries = 4; },
    };
    for (std::size_t i = 0; i < changes.size(); ++i) {
        SimOptions b = a;
        changes[i](b);
        EXPECT_NE(cacheKey(a), cacheKey(b)) << "field " << i;
        EXPECT_NE(runIdentity(a), runIdentity(b)) << "field " << i;
    }

    SimOptions tweaked = a;
    tweaked.tweak = [](CoreParams &) {};
    EXPECT_EQ(runIdentity(tweaked), runIdentity(a) + "|custom=1");
}

TEST_F(CampaignParallel, CheckedCampaignOrderingMatchesNames)
{
    // A runner built from a config (as every harness builds one)
    // returns results in run-list order.
    CampaignRunner runner(config(0, false));

    const std::vector<std::string> names{"swim", "gzip", "art"};
    std::vector<SimOptions> runs(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        runs[i].warmupInsts = 2000;
        runs[i].runInsts = 12000;
        runs[i].benchmark = names[i];
    }
    const auto results = runner.runChecked(runs).results;
    ASSERT_EQ(results.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(results[i].benchmark, names[i]);
}

} // namespace
} // namespace dmdc
