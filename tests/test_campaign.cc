/**
 * @file
 * Tests of the campaign layer: suite running, comparison helpers,
 * formatting utilities the benches rely on, and the run cache's
 * SimResult JSON form.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "common/json.hh"
#include "sim/campaign.hh"
#include "sim/campaign_runner.hh"
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

TEST(Campaign, RunSuiteProducesOneResultPerBenchmark)
{
    SimOptions opt;
    opt.warmupInsts = 2000;
    opt.runInsts = 15000;
    opt.scheme = "baseline";
    const std::vector<std::string> names{"gzip", "swim"};
    const auto results = runSuite(opt, names, /*verbose=*/false);
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
    const auto results = runSuite(opt, {"gzip", "crafty"}, false);
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

TEST(Campaign, FindResultFatalOnMissing)
{
    std::vector<SimResult> results(1);
    results[0].benchmark = "gzip";
    EXPECT_EQ(&findResult(results, "gzip"), &results[0]);
    EXPECT_EXIT((void)findResult(results, "nope"),
                ::testing::ExitedWithCode(1), ".*");
}

TEST(Campaign, FormattingHelpers)
{
    EXPECT_EQ(fmt(12.345, 1), "12.3");
    EXPECT_EQ(fmt(12.345, 0), "12");
    EXPECT_EQ(pct(0.5), "50.0%");
    const Range r{1.0, 2.0, 3.0, 3};
    EXPECT_EQ(rangeStr(r), "2.0 [1.0, 3.0]");
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

} // namespace
} // namespace dmdc
