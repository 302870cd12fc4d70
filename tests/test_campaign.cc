/**
 * @file
 * Tests of the campaign layer: suite running, comparison helpers,
 * formatting utilities the benches rely on, the run cache's SimResult
 * JSON form, the shared campaign flags, run identities, the run
 * queue's order and the journal's record order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>

#include <unistd.h>

#include "common/json.hh"
#include "sim/campaign.hh"
#include "sim/campaign_runner.hh"
#include "sim/cli_options.hh"
#include "trace/spec_suite.hh"

namespace dmdc
{
namespace
{

// Keep these tests hermetic: never serve suite runs from a cache
// left in the working directory by an earlier build.
const bool disableCache = [] {
    CampaignConfig cfg;
    cfg.useCache = false;
    CampaignRunner::configureGlobal(cfg);
    return true;
}();

/** @p base once per name, run as one checked campaign. */
std::vector<SimResult>
runEach(SimOptions base, const std::vector<std::string> &names)
{
    std::vector<SimOptions> runs;
    for (const std::string &name : names) {
        base.benchmark = name;
        runs.push_back(base);
    }
    return runCampaignChecked(runs).results;
}

TEST(Campaign, CheckedCampaignProducesOneResultPerBenchmark)
{
    SimOptions opt;
    opt.warmupInsts = 2000;
    opt.runInsts = 15000;
    opt.scheme = "baseline";
    const auto results = runEach(opt, {"gzip", "swim"});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].benchmark, "gzip");
    EXPECT_FALSE(results[0].fp);
    EXPECT_EQ(results[1].benchmark, "swim");
    EXPECT_TRUE(results[1].fp);
}

TEST(Campaign, SlowdownRangeIsZeroAgainstItself)
{
    SimOptions opt;
    opt.warmupInsts = 2000;
    opt.runInsts = 15000;
    const auto results = runEach(opt, {"gzip", "crafty"});
    const Range r = slowdownRange(results, results, false);
    EXPECT_EQ(r.n, 2u);
    EXPECT_DOUBLE_EQ(r.mean, 0.0);
    EXPECT_DOUBLE_EQ(r.min, 0.0);
    EXPECT_DOUBLE_EQ(r.max, 0.0);
}

TEST(Campaign, SavingRangeComputesRelativeDifference)
{
    std::vector<SimResult> base(1);
    base[0].benchmark = "x";
    base[0].fp = false;
    base[0].energy.lqCam = 100.0;
    std::vector<SimResult> test = base;
    test[0].energy.lqCam = 25.0;
    const Range r = savingRange(base, test, false,
        [](const SimResult &s) { return s.energy.lqCam; });
    EXPECT_DOUBLE_EQ(r.mean, 75.0);
}

TEST(Campaign, FindValidResultSkipsMissingAndInvalid)
{
    std::vector<SimResult> results(3);
    results[0].benchmark = "swim";
    results[0].valid = false;
    results[1].benchmark = "gzip";
    results[2].benchmark = "swim";
    EXPECT_EQ(findValidResult(results, "gzip"), &results[1]);
    EXPECT_EQ(findValidResult(results, "swim"), &results[2]);
    EXPECT_EQ(findValidResult(results, "nope"), nullptr);
    results[1].valid = false;
    EXPECT_EQ(findValidResult(results, "gzip"), nullptr);
}

TEST(Campaign, FormattingHelpers)
{
    EXPECT_EQ(fmt(12.345, 1), "12.3");
    EXPECT_EQ(fmt(12.345, 0), "12");
    EXPECT_EQ(pct(0.5), "50.0%");
    const Range r{1.0, 2.0, 3.0, 3};
    EXPECT_EQ(rangeStr(r), "2.0 [1.0, 3.0]");
    EXPECT_EQ(fmt(meanOf(r), 2, "%"), "2.00%");
    // A group with no valid run prints n/a, never a made-up zero.
    EXPECT_EQ(rangeStr(Range{}), "n/a");
    EXPECT_EQ(fmt(meanOf(Range{}), 2, "%"), "n/a");
}

TEST(Campaign, RangeOverFiltersByGroup)
{
    std::vector<SimResult> results(3);
    results[0].fp = false;
    results[0].ipc = 1.0;
    results[1].fp = true;
    results[1].ipc = 2.0;
    results[2].fp = false;
    results[2].ipc = 3.0;
    const Range int_r = rangeOver(results, false,
        [](const SimResult &r) { return r.ipc; });
    EXPECT_EQ(int_r.n, 2u);
    EXPECT_DOUBLE_EQ(int_r.mean, 2.0);
    const Range fp_r = rangeOver(results, true,
        [](const SimResult &r) { return r.ipc; });
    EXPECT_EQ(fp_r.n, 1u);
    EXPECT_DOUBLE_EQ(fp_r.mean, 2.0);
}

TEST(Campaign, PerMInstNormalization)
{
    SimResult r;
    r.instructions = 2000000;
    EXPECT_DOUBLE_EQ(r.perMInst(4.0), 2.0);
    SimResult empty;
    EXPECT_DOUBLE_EQ(empty.perMInst(4.0), 0.0);
}

std::string
resultJson(const SimResult &r)
{
    std::ostringstream os;
    writeSimResultJson(os, r);
    return os.str();
}

TEST(ResultJson, RoundTripsByteIdentically)
{
    SimOptions opt;
    opt.benchmark = "swim";
    opt.scheme = "dmdc-global";
    opt.warmupInsts = 2000;
    opt.runInsts = 15000;
    const SimResult r = runSimulation(opt);
    const std::string text = resultJson(r);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(text, doc, err)) << err;
    SimResult back;
    ASSERT_TRUE(readSimResultJson(doc, back));
    EXPECT_EQ(resultJson(back), text);
    EXPECT_EQ(back.cycles, r.cycles);
    EXPECT_EQ(back.ipc, r.ipc);
    EXPECT_EQ(back.energy.lqFunction(), r.energy.lqFunction());
}

TEST(ResultJson, EveryWrittenFieldIsRequired)
{
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(resultJson(SimResult{}), doc, err)) << err;
    const JsonValue *energy = doc.find("energy");
    ASSERT_NE(energy, nullptr);
    ASSERT_FALSE(energy->fields.empty());
    // Dropping any one field, top-level or inside "energy", must make
    // the decode fail instead of leaving a default in the result.
    auto dropEach = [&](JsonValue &obj) {
        for (std::size_t i = 0; i < obj.fields.size(); ++i) {
            const auto saved = obj.fields[i];
            obj.fields.erase(obj.fields.begin() + i);
            SimResult r;
            EXPECT_FALSE(readSimResultJson(doc, r)) << saved.first;
            obj.fields.insert(obj.fields.begin() + i, saved);
        }
    };
    dropEach(doc);
    for (auto &[name, value] : doc.fields) {
        if (name == "energy")
            dropEach(value);
    }
    SimResult r;
    EXPECT_TRUE(readSimResultJson(doc, r));
}

TEST(ResultJson, NonFiniteDoublesRoundTrip)
{
    SimResult r;
    r.ipc = std::numeric_limits<double>::quiet_NaN();
    r.energy.yla = std::numeric_limits<double>::infinity();
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(resultJson(r), doc, err)) << err;
    SimResult back;
    ASSERT_TRUE(readSimResultJson(doc, back));
    EXPECT_TRUE(std::isnan(back.ipc));
    EXPECT_EQ(back.energy.yla, r.energy.yla);
}

// ---- shared campaign flags --------------------------------------------

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

TEST(CampaignCli, SchedulerFlagIsGone)
{
    for (const char *gone : {"--scheduler=work-stealing", "--shard=0/2",
                             "--cache-max-mb=1"}) {
        CampaignCliOptions cli;
        std::string err;
        EXPECT_FALSE(parseCampaignCli({gone}, cli, err)) << gone;
        EXPECT_FALSE(err.empty()) << gone;
    }
}

TEST(CampaignCli, RejectsNegativeTimeout)
{
    CampaignCliOptions cli;
    std::string err;
    EXPECT_FALSE(parseCampaignCli({"--timeout=-5"}, cli, err));
    EXPECT_NE(err.find("--timeout"), std::string::npos) << err;

    CampaignCliOptions zero;
    EXPECT_TRUE(parseCampaignCli({"--timeout=0"}, zero, err)) << err;
}

TEST(CampaignCli, DefaultTraceFileIsPerProcess)
{
    CampaignCliOptions cli;
    std::string err;
    ASSERT_TRUE(parseCampaignCli({"--trace=all"}, cli, err)) << err;
    EXPECT_EQ(cli.trace.outPath,
              "trace." + std::to_string(::getpid()) + ".json");

    CampaignCliOptions named;
    ASSERT_TRUE(parseCampaignCli({"--trace=all", "--trace-out=t.json"},
                                 named, err))
        << err;
    EXPECT_EQ(named.trace.outPath, "t.json");
}

// ---- run identity, queue order, journal order --------------------------

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

TEST(RunIdentity, KeepsEveryDigitOfTheInvalidationRate)
{
    // Rates that agree to 6 significant digits are still different
    // runs (cacheKey() tells them apart too).
    SimOptions a = quickOptions("gzip", "dmdc-global");
    SimOptions b = a;
    a.invalidationsPer1kCycles = 0.1234567;
    b.invalidationsPer1kCycles = 0.1234568;
    EXPECT_NE(runIdentity(a), runIdentity(b));
}

TEST(RunQueue, MixedBudgetOrderIsPinned)
{
    // The order a multi-worker runner queues its runs in: costlier
    // first, ties broken by identity hash, then identity. Mixed
    // budgets plus one repeated journal identity, pinned.
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

    std::vector<std::size_t> order(runs.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return lptBefore(lptItem(runs[a]),
                                          lptItem(runs[b]));
                     });
    EXPECT_EQ(order, (std::vector<std::size_t>{12, 3, 11, 7, 2, 6, 10, 9,
                                               5, 1, 4, 0, 8}));
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

} // namespace
} // namespace dmdc
