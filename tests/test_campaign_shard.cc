/**
 * @file
 * Tests of campaign sharding: shard-spec parsing, the deterministic
 * partition function, per-shard file naming, and the journal merger —
 * including the central guarantee that N shard processes' journals
 * merge into a file byte-identical to an uninterrupted single-process
 * campaign, and that a chaos-interrupted shard converges when rerun
 * against the same cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "sim/campaign_runner.hh"
#include "sim/campaign_shard.hh"
#include "sim/cli_options.hh"
#include "sim/fault_injector.hh"

namespace dmdc
{
namespace
{

namespace fs = std::filesystem;

std::string
slurp(const fs::path &path)
{
    std::ifstream is(path);
    std::stringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

SimOptions
quickOptions(const std::string &bench, const std::string &scheme)
{
    SimOptions opt;
    opt.benchmark = bench;
    opt.scheme = scheme;
    opt.warmupInsts = 2000;
    opt.runInsts = 20000;
    return opt;
}

/** The small campaign the merge tests run: 3 benches x 2 schemes. */
std::vector<SimOptions>
smallCampaign()
{
    std::vector<SimOptions> runs;
    for (const char *bench : {"gzip", "swim", "mcf"}) {
        for (const char *scheme : {"baseline", "yla"})
            runs.push_back(quickOptions(bench, scheme));
    }
    return runs;
}

// ---- shard spec ------------------------------------------------------

TEST(ShardSpec, ParsesValidSpecs)
{
    ShardSpec spec;
    std::string err;
    ASSERT_TRUE(parseShardSpec("0/2", spec, err)) << err;
    EXPECT_EQ(spec.index, 0u);
    EXPECT_EQ(spec.count, 2u);
    EXPECT_TRUE(spec.active());
    EXPECT_EQ(shardSpecName(spec), "0/2");

    ASSERT_TRUE(parseShardSpec("7/8", spec, err)) << err;
    EXPECT_EQ(spec.index, 7u);
    EXPECT_EQ(spec.count, 8u);

    // 0/1 is legal and means "the whole campaign".
    ASSERT_TRUE(parseShardSpec("0/1", spec, err)) << err;
    EXPECT_FALSE(spec.active());
}

TEST(ShardSpec, RejectsMalformedSpecs)
{
    ShardSpec spec;
    std::string err;
    for (const char *bad : {"", "2", "/2", "0/", "2/2", "5/2", "a/2",
                            "0/b", "-1/2", "0/0", "1.5/2", "0/2/3",
                            "9999999/9999999"}) {
        EXPECT_FALSE(parseShardSpec(bad, spec, err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

/** Parse @p args as a campaign binary would; finalize() verdict. */
bool
parseCampaignCli(std::vector<std::string> args, CampaignCliOptions &out,
                 std::string &err)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    CliParser parser("prog");
    out.addTo(parser);
    return parser.parse(static_cast<int>(argv.size()), argv.data(),
                        err) &&
           out.finalize(err);
}

TEST(CampaignCli, CacheCapConvertsMebibytes)
{
    CampaignCliOptions cli;
    std::string err;
    ASSERT_TRUE(parseCampaignCli({"--cache-max-mb=3"}, cli, err)) << err;
    EXPECT_EQ(cli.config.cacheMaxBytes, 3ull << 20);

    CampaignCliOptions largest;
    ASSERT_TRUE(parseCampaignCli({"--cache-max-mb=17592186044415"},
                                 largest, err))
        << err;
    EXPECT_EQ(largest.config.cacheMaxBytes,
              UINT64_MAX - ((1ull << 20) - 1));
}

TEST(CampaignCli, RejectsCacheCapThatOverflowsBytes)
{
    // 2^44 MiB would wrap to 0 (unlimited), 2^44 + 1 to a 1 MiB cap.
    for (const char *mb : {"17592186044416", "17592186044417",
                           "18446744073709551615"}) {
        CampaignCliOptions cli;
        std::string err;
        EXPECT_FALSE(parseCampaignCli(
            {std::string("--cache-max-mb=") + mb}, cli, err))
            << mb;
        EXPECT_NE(err.find("--cache-max-mb"), std::string::npos) << err;
    }
}

TEST(CampaignCli, SchedulerFlagIsGone)
{
    CampaignCliOptions cli;
    std::string err;
    EXPECT_FALSE(
        parseCampaignCli({"--scheduler=work-stealing"}, cli, err));
    EXPECT_FALSE(err.empty());
}

TEST(JournalOrder, SharedIdentityRecordsHaveATotalOrder)
{
    // Two runs of one (benchmark, scheme, config) triple that differ in
    // a hidden knob (an invalidation-rate sweep, say) must not land in
    // completion order.
    JournalEntry a;
    a.benchmark = "swim";
    a.scheme = "dmdc-global";
    a.cyclesToken = "82189";
    a.ipcToken = "0.7300246991689886";
    JournalEntry b = a;
    b.cyclesToken = "82265";
    b.ipcToken = "0.72935027046739198";
    EXPECT_TRUE(journalEntryLess(a, b));
    EXPECT_FALSE(journalEntryLess(b, a));
}

// ---- partition -------------------------------------------------------

TEST(ShardAssignment, DeterministicCompleteAndBalanced)
{
    std::vector<SimOptions> runs;
    for (const char *bench :
         {"gzip", "swim", "mcf", "art", "vpr", "gcc", "ammp",
          "crafty"}) {
        for (const char *scheme : {"baseline", "yla", "dmdc-global"})
            runs.push_back(quickOptions(bench, scheme));
    }

    for (const unsigned n : {2u, 3u, 8u}) {
        const std::vector<unsigned> a = shardAssignment(runs, n);
        ASSERT_EQ(a.size(), runs.size());
        // Pure function of the inputs.
        EXPECT_EQ(a, shardAssignment(runs, n));
        // Complete: every run owned, every index in range; with more
        // groups than shards every shard gets work.
        std::vector<std::size_t> perShard(n, 0);
        for (const unsigned s : a) {
            ASSERT_LT(s, n);
            ++perShard[s];
        }
        for (unsigned s = 0; s < n; ++s)
            EXPECT_GT(perShard[s], 0u) << "empty shard " << s << "/"
                                       << n;
        // Balanced: all runs cost the same here, so LPT must land
        // within one group of even.
        const std::size_t lo =
            *std::min_element(perShard.begin(), perShard.end());
        const std::size_t hi =
            *std::max_element(perShard.begin(), perShard.end());
        EXPECT_LE(hi - lo, 1u) << "imbalanced " << n << "-way split";
    }
}

TEST(ShardAssignment, EqualIdentitiesColocate)
{
    // table3-style campaign: the same (benchmark, scheme, config)
    // triple under different hidden knobs. All copies must land on
    // one shard or the merger's disjointness invariant breaks.
    std::vector<SimOptions> runs;
    for (const char *bench : {"gzip", "swim", "mcf", "art"}) {
        SimOptions a = quickOptions(bench, "dmdc-global");
        SimOptions b = a;
        b.safeLoads = false;
        SimOptions c = a;
        c.sqFilter = true;
        runs.push_back(a);
        runs.push_back(b);
        runs.push_back(c);
    }
    for (const unsigned n : {2u, 3u, 8u}) {
        const std::vector<unsigned> a = shardAssignment(runs, n);
        for (std::size_t i = 0; i < runs.size(); i += 3) {
            EXPECT_EQ(a[i], a[i + 1]);
            EXPECT_EQ(a[i], a[i + 2]);
        }
    }
}

TEST(ShardAssignment, MixedBudgetAssignmentIsPinned)
{
    // Shard processes built from different commits must agree on the
    // partition: mixed budgets plus one repeated identity, pinned.
    std::vector<SimOptions> runs;
    const char *benches[] = {"gzip", "swim", "mcf", "art", "vpr", "gcc"};
    for (unsigned i = 0; i < 6; ++i) {
        for (unsigned j = 0; j < 2; ++j) {
            SimOptions opt = quickOptions(
                benches[i], j == 0 ? "baseline" : "dmdc-global");
            opt.runInsts = 10000 + 5000 * ((i * 2 + j) % 4);
            runs.push_back(opt);
        }
    }
    SimOptions repeat = runs[0];
    repeat.safeLoads = false;
    repeat.runInsts = 40000;
    runs.push_back(repeat);
    EXPECT_EQ(shardAssignment(runs, 2),
              (std::vector<unsigned>{0, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1,
                                     0}));
    EXPECT_EQ(shardAssignment(runs, 3),
              (std::vector<unsigned>{0, 2, 2, 1, 0, 1, 2, 1, 0, 1, 0, 2,
                                     0}));
}

TEST(RunIdentity, KeepsEveryDigitOfTheInvalidationRate)
{
    // Rates that agree to 6 significant digits are still different
    // runs (cacheKey() tells them apart too).
    SimOptions a = quickOptions("gzip", "dmdc-global");
    SimOptions b = a;
    a.invalidationsPer1kCycles = 0.1234567;
    b.invalidationsPer1kCycles = 0.1234568;
    EXPECT_NE(runIdentity(a), runIdentity(b));
    EXPECT_NE(campaignFingerprint({a}), campaignFingerprint({b}));
}

TEST(ShardAssignment, SingleShardOwnsEverything)
{
    const std::vector<SimOptions> runs = smallCampaign();
    for (const unsigned owner : shardAssignment(runs, 1))
        EXPECT_EQ(owner, 0u);
}

// ---- sharded execution + merge ---------------------------------------

/**
 * Runs campaigns through the process-global journal; resets the
 * journal and fault injector around each test.
 */
class CampaignShard : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        scratch_ = fs::temp_directory_path() /
            ("dmdc_shard_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
        fs::remove_all(scratch_);
        fs::create_directories(scratch_);
        FaultInjector::global().configure({});
        setCampaignJournal("");
    }

    void
    TearDown() override
    {
        FaultInjector::global().configure({});
        setCampaignJournal("");
        fs::remove_all(scratch_);
    }

    /**
     * Execute @p runs as shard @p index of @p count — the in-process
     * equivalent of one `--shard=index/count --json=<returned path>`
     * process — and return the journal path.
     */
    fs::path
    runShard(const std::vector<SimOptions> &runs, unsigned index,
             unsigned count, const fs::path &cacheDir)
    {
        const fs::path journal =
            scratch_ / ("shard" + std::to_string(index) + "of" +
                        std::to_string(count) + ".json");
        setCampaignJournal(journal.string(), /*deterministic=*/true);
        CampaignConfig cfg;
        cfg.cacheDir = cacheDir.string();
        cfg.shard = ShardSpec{index, count};
        cfg.maxRetries = 0;
        CampaignRunner runner(cfg);
        (void)runner.runChecked(runs);
        flushCampaignJournal();
        setCampaignJournal("");
        return journal;
    }

    /** Serial single-process deterministic journal for @p runs. */
    std::string
    serialJournal(const std::vector<SimOptions> &runs,
                  const fs::path &cacheDir)
    {
        const fs::path path = scratch_ / "serial.json";
        setCampaignJournal(path.string(), /*deterministic=*/true);
        CampaignConfig cfg;
        cfg.cacheDir = cacheDir.string();
        CampaignRunner runner(cfg);
        EXPECT_TRUE(runner.runChecked(runs).allOk());
        flushCampaignJournal();
        setCampaignJournal("");
        return slurp(path);
    }

    fs::path scratch_;
};

TEST_F(CampaignShard, OutOfShardRunsAreNotExecuted)
{
    const std::vector<SimOptions> runs = smallCampaign();
    const std::vector<unsigned> owner = shardAssignment(runs, 2);

    setCampaignJournal((scratch_ / "s0.json").string(), true);
    CampaignConfig cfg;
    cfg.cacheDir = (scratch_ / "cache").string();
    cfg.shard = ShardSpec{0, 2};
    CampaignRunner runner(cfg);
    const CampaignResult cr = runner.runChecked(runs);
    flushCampaignJournal();

    std::size_t in_shard = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunOutcome &oc = cr.outcomes[i];
        EXPECT_EQ(oc.shard, owner[i]);
        if (owner[i] == 0) {
            ++in_shard;
            EXPECT_TRUE(oc.ok());
            EXPECT_TRUE(oc.inShard());
            EXPECT_GT(cr.results[i].instructions, 0u);
            EXPECT_TRUE(cr.results[i].valid);
        } else {
            EXPECT_EQ(oc.status, RunStatus::OutOfShard);
            EXPECT_FALSE(oc.inShard());
            EXPECT_EQ(oc.attempts, 0u);
        }
    }
    EXPECT_EQ(runner.lastStats().simulated, in_shard);
    EXPECT_EQ(runner.lastStats().outOfShard, runs.size() - in_shard);
    // allOk() ignores out-of-shard runs: this slice fully succeeded.
    EXPECT_TRUE(cr.allOk());
    EXPECT_EQ(cr.degradedRuns(), 0u);

    // The journal holds only this shard's records, plus the header
    // the merger needs.
    ShardJournal parsed;
    std::string err;
    ASSERT_TRUE(
        loadShardJournal((scratch_ / "s0.json").string(), parsed, err))
        << err;
    EXPECT_TRUE(parsed.sharded);
    EXPECT_EQ(parsed.shardIndex, 0u);
    EXPECT_EQ(parsed.shardCount, 2u);
    EXPECT_EQ(parsed.runsTotal, runs.size());
    EXPECT_EQ(parsed.entries.size(), in_shard);
}

TEST_F(CampaignShard, MergedJournalsMatchSerialBitForBit)
{
    const std::vector<SimOptions> runs = smallCampaign();
    // One shared cache across the serial run and every sharded rerun:
    // exactly like N processes pointing --cache-dir at one directory.
    const fs::path cache = scratch_ / "cache";
    const std::string serial = serialJournal(runs, cache);
    ASSERT_FALSE(serial.empty());

    for (const unsigned n : {2u, 3u, 8u}) {
        std::vector<ShardJournal> shards(n);
        std::string err;
        for (unsigned i = 0; i < n; ++i) {
            const fs::path path = runShard(runs, i, n, cache);
            ASSERT_TRUE(loadShardJournal(path.string(), shards[i], err))
                << err;
        }
        ShardJournal merged;
        ASSERT_TRUE(mergeShardJournals(shards, merged, err))
            << n << "-way: " << err;
        std::ostringstream out;
        writeMergedJournal(out, merged);
        EXPECT_EQ(out.str(), serial) << n << "-way merge differs";
    }
}

TEST_F(CampaignShard, MergerRejectsBadShardSets)
{
    const std::vector<SimOptions> runs = smallCampaign();
    const fs::path cache = scratch_ / "cache";
    std::vector<ShardJournal> shards(2);
    std::string err;
    for (unsigned i = 0; i < 2; ++i) {
        const fs::path path = runShard(runs, i, 2, cache);
        ASSERT_TRUE(loadShardJournal(path.string(), shards[i], err))
            << err;
    }
    ShardJournal merged;

    // Incomplete set: the message must name the absent slice, not
    // just count journals.
    EXPECT_FALSE(mergeShardJournals({shards[0]}, merged, err));
    EXPECT_NE(err.find("incomplete"), std::string::npos) << err;
    EXPECT_NE(err.find("missing shard 1/2"), std::string::npos) << err;

    // Duplicate shard, named by its coordinates.
    EXPECT_FALSE(
        mergeShardJournals({shards[0], shards[0]}, merged, err));
    EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
    EXPECT_NE(err.find("shard 0/2"), std::string::npos) << err;

    // Foreign campaign fingerprint.
    {
        std::vector<ShardJournal> bad = shards;
        bad[1].campaign = "feedfacefeedface";
        EXPECT_FALSE(mergeShardJournals(bad, merged, err));
        EXPECT_NE(err.find("foreign campaign"), std::string::npos)
            << err;
    }

    // Different build commit.
    {
        std::vector<ShardJournal> bad = shards;
        bad[1].commit = "0000000";
        EXPECT_FALSE(mergeShardJournals(bad, merged, err));
        EXPECT_NE(err.find("different build"), std::string::npos)
            << err;
    }

    // Overlapping slices: shard 1 also claims one of shard 0's runs.
    {
        std::vector<ShardJournal> bad = shards;
        ASSERT_FALSE(bad[0].entries.empty());
        bad[1].entries.push_back(bad[0].entries.front());
        EXPECT_FALSE(mergeShardJournals(bad, merged, err));
        EXPECT_NE(err.find("overlapping"), std::string::npos) << err;
    }

    // Lost records: the union no longer covers the campaign, and the
    // per-shard breakdown fingers the short slice (a crashed worker's
    // partial journal shows up exactly like this).
    {
        std::vector<ShardJournal> bad = shards;
        ASSERT_FALSE(bad[1].entries.empty());
        bad[1].entries.pop_back();
        EXPECT_FALSE(mergeShardJournals(bad, merged, err));
        EXPECT_NE(err.find("incomplete or over-complete"),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find("shard 0: " +
                           std::to_string(bad[0].entries.size())),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find("shard 1: " +
                           std::to_string(bad[1].entries.size())),
                  std::string::npos)
            << err;
    }

    // A serial (unsharded) journal is not mergeable input.
    {
        const std::string serial = serialJournal(runs, cache);
        ShardJournal plain;
        ASSERT_TRUE(parseShardJournal(serial, plain, err)) << err;
        EXPECT_FALSE(
            mergeShardJournals({shards[0], plain}, merged, err));
        EXPECT_NE(err.find("no shard header"), std::string::npos)
            << err;
    }
}

TEST_F(CampaignShard, ChaosShardConvergesOnRerun)
{
    const std::vector<SimOptions> runs = smallCampaign();
    const fs::path cache = scratch_ / "cache"; // cold: faults can fire

    // Pass 1: both shards run under injected chaos with no retries.
    FaultSpec spec;
    spec.runThrowP = 0.5;
    spec.seed = 11;
    FaultInjector::global().configure(spec);
    std::size_t failures = 0;
    for (unsigned i = 0; i < 2; ++i) {
        setCampaignJournal("");
        CampaignConfig cfg;
        cfg.cacheDir = cache.string();
        cfg.shard = ShardSpec{i, 2};
        cfg.maxRetries = 0;
        CampaignRunner runner(cfg);
        failures += runner.runChecked(runs).degradedRuns();
    }
    ASSERT_GT(failures, 0u)
        << "chaos seed produced no failures; pick another seed";
    FaultInjector::global().configure({});

    // Pass 2: rerun both shards with faults off. Survivors come from
    // the shared cache, casualties re-execute; the merged journal is
    // byte-identical to an undisturbed serial campaign.
    std::vector<ShardJournal> shards(2);
    std::string err;
    for (unsigned i = 0; i < 2; ++i) {
        const fs::path path = runShard(runs, i, 2, cache);
        ASSERT_TRUE(loadShardJournal(path.string(), shards[i], err))
            << err;
    }
    ShardJournal merged;
    ASSERT_TRUE(mergeShardJournals(shards, merged, err)) << err;
    for (const JournalEntry &e : merged.entries)
        EXPECT_EQ(e.status, RunStatus::Ok) << e.benchmark;

    const std::string serial = serialJournal(runs, cache);
    std::ostringstream out;
    writeMergedJournal(out, merged);
    EXPECT_EQ(out.str(), serial);
}

} // namespace
} // namespace dmdc
