/**
 * @file
 * Tests of the campaign layer: suite running, comparison helpers,
 * formatting utilities the benches rely on, the run cache's SimResult
 * JSON form, the shared campaign flags, run identities, the run
 * queue's order and the journal's row order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
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

/** @p base once per name, run as one checked campaign. Uncached, so
 *  a cache left in the working directory never serves a run. */
std::vector<SimResult>
runEach(SimOptions base, const std::vector<std::string> &names)
{
    std::vector<SimOptions> runs;
    for (const std::string &name : names) {
        base.benchmark = name;
        runs.push_back(base);
    }
    CampaignConfig cfg;
    cfg.useCache = false;
    return CampaignRunner(cfg).runChecked(runs).results;
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

TEST(ResultJson, DecodesFieldsInAnyOrder)
{
    // The decoder expects the writer's order but must not depend on
    // it: reversed top-level and "energy" fields decode the same.
    SimOptions opt;
    opt.benchmark = "gzip";
    opt.scheme = "dmdc-global";
    opt.warmupInsts = 2000;
    opt.runInsts = 15000;
    const std::string text = resultJson(runSimulation(opt));
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(text, doc, err)) << err;
    std::reverse(doc.fields.begin(), doc.fields.end());
    ASSERT_EQ(doc.fields.front().first, "energy");
    std::reverse(doc.fields.front().second.fields.begin(),
                 doc.fields.front().second.fields.end());
    SimResult back;
    ASSERT_TRUE(readSimResultJson(doc, back));
    EXPECT_EQ(resultJson(back), text);
}

TEST(ResultJson, RejectsSignedAndJunkCounts)
{
    SimResult r;
    r.cycles = 1234;
    const std::string text = resultJson(r);
    const std::string field = "\"cycles\":1234,";
    const std::size_t at = text.find(field);
    ASSERT_NE(at, std::string::npos);
    auto decodes = [](const std::string &doc_text) {
        JsonValue doc;
        std::string err;
        SimResult out;
        return parseJson(doc_text, doc, err) &&
               readSimResultJson(doc, out);
    };
    ASSERT_TRUE(decodes(text));
    // A signed token must never wrap into an unsigned count.
    for (const char *token : {"-5", "+5", "12x"}) {
        std::string bad = text;
        bad.replace(at, field.size(),
                    "\"cycles\":" + std::string(token) + ",");
        EXPECT_FALSE(decodes(bad)) << token;
    }
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

TEST(JournalRows, FollowTheRunListWhateverTheCompletionOrder)
{
    // An invalidation-rate sweep shares one (benchmark, scheme,
    // config) triple: each row still names its own run, rows keep the
    // run-list order on any worker count, and the deterministic
    // journal is the same bytes on 1 and 4 workers.
    std::vector<SimOptions> runs;
    for (double rate : {100.0, 10.0, 1.0, 0.0}) {
        SimOptions opt = quickOptions("swim", "dmdc-global");
        opt.coherence = true;
        opt.invalidationsPer1kCycles = rate;
        runs.push_back(opt);
    }
    std::string bytes[2];
    for (const unsigned jobs : {1u, 4u}) {
        const std::string path = ::testing::TempDir() +
            "dmdc_journal_rows_" + std::to_string(::getpid()) + "_" +
            std::to_string(jobs) + ".json";
        CampaignConfig cfg;
        cfg.jobs = jobs;
        cfg.useCache = false;
        cfg.journalPath = path;
        cfg.journalDeterministic = true;
        CampaignRunner runner(cfg);
        ASSERT_TRUE(runner.runChecked(runs).allOk());
        std::ifstream is(path);
        std::stringstream buf;
        buf << is.rdbuf();
        std::remove(path.c_str());
        bytes[jobs == 4] = buf.str();

        JsonValue doc;
        std::string err;
        ASSERT_TRUE(parseJson(bytes[jobs == 4], doc, err)) << err;
        const JsonValue *rows = doc.find("results");
        ASSERT_NE(rows, nullptr);
        ASSERT_EQ(rows->items.size(), runs.size());
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const JsonValue *run = rows->items[i].find("run");
            ASSERT_NE(run, nullptr);
            EXPECT_EQ(run->text, runIdentity(runs[i])) << i;
        }
    }
    EXPECT_EQ(bytes[0], bytes[1]);
}

} // namespace
} // namespace dmdc
