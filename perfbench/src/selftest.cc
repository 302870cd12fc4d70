/**
 * @file
 * Tests of the benchmark's own code: the timing decorator, seed-driven
 * run selection, the statistics and span arithmetic, and the metric
 * catalogue against BENCHMARK.json.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "common/json.hh"
#include "metrics.hh"
#include "reference.hh"
#include "trace/spec_suite.hh"
#include "traced_kernel.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

dmdc::SimOptions
shortRun(const std::string &bench, unsigned config,
         const std::string &scheme)
{
    dmdc::SimOptions opt;
    opt.benchmark = bench;
    opt.configLevel = config;
    opt.scheme = scheme;
    opt.warmupInsts = 3000;
    opt.runInsts = 20000;
    return opt;
}

std::vector<std::string>
keysOf(const std::vector<dmdc::SimOptions> &runs)
{
    std::vector<std::string> keys;
    for (const dmdc::SimOptions &opt : runs)
        keys.push_back(runKey(opt));
    return keys;
}

} // namespace

TEST(TimingWorkload, TracedRunMatchesSimulatorRun)
{
    for (const dmdc::SimOptions &opt :
         {shortRun("gzip", 2, "dmdc-global"), shortRun("mcf", 3, "baseline"),
          shortRun("swim", 1, "dmdc-global")}) {
        const dmdc::SimResult r = dmdc::runSimulation(opt);
        const TracedKernelRun t = runTracedKernel(opt, 1);
        EXPECT_EQ(t.committed, r.instructions) << opt.benchmark;
        EXPECT_EQ(t.cycles, r.cycles) << opt.benchmark;
        EXPECT_EQ(t.pinned, pinnedValues(r, t.warmupCommitted))
            << opt.benchmark;
        EXPECT_GE(t.warmupCommitted, opt.warmupInsts);
        EXPECT_GT(t.op.calls, 0u);
        EXPECT_GT(t.tick.calls, 0u);
        EXPECT_LE(t.tickChildNs, t.tick.ns);
    }
}

TEST(TimingWorkload, ForwardsEveryCall)
{
    auto inner = dmdc::makeSpecWorkload("gzip");
    auto plain = dmdc::makeSpecWorkload("gzip");
    TimingWorkload timed(*inner);
    EXPECT_EQ(timed.name(), plain->name());
    EXPECT_EQ(timed.isFpBenchmark(), plain->isFpBenchmark());
    for (std::uint64_t i = 0; i < 100; ++i) {
        EXPECT_EQ(timed.op(i).pc, plain->op(i).pc);
        EXPECT_EQ(timed.wrongPathOp(0x4000 + 4 * i, i).pc,
                  plain->wrongPathOp(0x4000 + 4 * i, i).pc);
    }
    timed.discardBefore(50);
    EXPECT_EQ(timed.opClock().calls, 100u);
    EXPECT_EQ(timed.wrongPathClock().calls, 100u);
    EXPECT_EQ(timed.discardClock().calls, 1u);
}

TEST(SeedSelection, SameSeedSameRuns)
{
    for (WorkloadKind w :
         {WorkloadKind::KernelBusy, WorkloadKind::KernelStall,
          WorkloadKind::CampaignCold, WorkloadKind::CampaignWarm}) {
        SeedRng a(42), b(42);
        for (int pass = 0; pass < 3; ++pass)
            EXPECT_EQ(keysOf(drawPass(w, a)), keysOf(drawPass(w, b)));
    }
}

TEST(SeedSelection, PassIsAPermutationOfEveryDrawableRun)
{
    for (WorkloadKind w :
         {WorkloadKind::KernelBusy, WorkloadKind::KernelStall,
          WorkloadKind::CampaignCold, WorkloadKind::CampaignWarm}) {
        SeedRng rng(7);
        std::vector<std::string> drawn = keysOf(drawPass(w, rng));
        std::vector<std::string> all = keysOf(allRuns(w));
        std::sort(drawn.begin(), drawn.end());
        std::sort(all.begin(), all.end());
        EXPECT_EQ(drawn, all) << workloadName(w);
    }
    EXPECT_EQ(allRuns(WorkloadKind::CampaignCold).size(), 156u);
    EXPECT_EQ(allRuns(WorkloadKind::KernelBusy).size(), 5u);
    SeedRng a(1), b(2);
    EXPECT_NE(keysOf(drawPass(WorkloadKind::CampaignCold, a)),
              keysOf(drawPass(WorkloadKind::CampaignCold, b)));
}

TEST(SeedSelection, KernelOptionsFollowTheWorkload)
{
    const dmdc::SimOptions busy =
        kernelOptions(WorkloadKind::KernelBusy, "gzip");
    EXPECT_EQ(busy.configLevel, 2u);
    EXPECT_EQ(busy.scheme, "dmdc-global");
    EXPECT_EQ(busy.warmupInsts, 100000u);
    EXPECT_EQ(busy.runInsts, 1000000u);
    const dmdc::SimOptions stall =
        kernelOptions(WorkloadKind::KernelStall, "mcf");
    EXPECT_EQ(stall.configLevel, 3u);
    EXPECT_EQ(stall.scheme, "baseline");
}

TEST(Statistics, PercentileInterpolatesBetweenRanks)
{
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7}, 90), 7.0);
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 50), 2.5);
    EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90), 9.1);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 100),
                     10.0);
}

TEST(Statistics, SelfTimeSubtractsCoveredChildIntervals)
{
    // root [0,100): children [10,30) and [20,50) overlap (40 covered),
    // plus [90,120) of which 10 lies inside root. grandchild [12,18)
    // belongs to the first child only.
    const std::vector<Span> spans = {
        {"root", 0, 100, -1, 1},  {"a", 10, 30, 0, 1},
        {"b", 20, 50, 0, 1},      {"c", 90, 120, 0, 1},
        {"a.x", 12, 18, 1, 1},
    };
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    ASSERT_EQ(self.size(), spans.size());
    EXPECT_EQ(self[0], 100 - 40 - 10);
    EXPECT_EQ(self[1], 20 - 6);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 6);
}

TEST(Statistics, CallClockSums)
{
    CallClock c;
    c.add(100, 150);
    c.add(200, 230);
    EXPECT_EQ(c.calls, 2u);
    EXPECT_EQ(c.ns, 80);
}

TEST(Metrics, EveryMetricHasNameUnitAndDirection)
{
    const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
    std::set<std::string> seen;
    for (const auto *catalogue : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricSpec &m : *catalogue) {
            EXPECT_TRUE(std::regex_match(m.name, name_re)) << m.name;
            EXPECT_TRUE(std::regex_match(m.unit, unit_re)) << m.name;
            EXPECT_TRUE(m.better == Better::Higher ||
                        m.better == Better::Lower);
            EXPECT_TRUE(seen.insert(m.name).second) << m.name;
        }
    }
    MetricSet set;
    for (const MetricSpec &m : endToEndMetrics())
        set.set(m.name, 1.5);
    EXPECT_TRUE(set.missing(endToEndMetrics()).empty());
    EXPECT_EQ(set.missing(perLayerMetrics()).size(),
              perLayerMetrics().size());
    dmdc::JsonValue v;
    std::string err;
    ASSERT_TRUE(dmdc::parseJson(
        resultLine(true, 3, 0, set.json(endToEndMetrics())), v, err))
        << err;
    const dmdc::JsonValue *metrics = v.find("metrics");
    ASSERT_NE(metrics, nullptr);
    for (const MetricSpec &m : endToEndMetrics()) {
        const dmdc::JsonValue *e = metrics->find(m.name);
        ASSERT_NE(e, nullptr) << m.name;
        ASSERT_NE(e->find("unit"), nullptr);
        EXPECT_EQ(e->find("unit")->text, m.unit);
    }
}

TEST(Metrics, CatalogueMatchesBenchmarkJson)
{
    std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) +
                     "/../BENCHMARK.json");
    ASSERT_TRUE(in) << "BENCHMARK.json not found";
    std::stringstream text;
    text << in.rdbuf();
    dmdc::JsonValue doc;
    std::string err;
    ASSERT_TRUE(dmdc::parseJson(text.str(), doc, err)) << err;
    auto check = [&](const char *section,
                     const std::vector<MetricSpec> &catalogue) {
        const dmdc::JsonValue *list = doc.find(section);
        ASSERT_NE(list, nullptr) << section;
        ASSERT_EQ(list->items.size(), catalogue.size()) << section;
        for (std::size_t i = 0; i < catalogue.size(); ++i) {
            const dmdc::JsonValue &e = list->items[i];
            EXPECT_EQ(e.find("name")->text, catalogue[i].name);
            EXPECT_EQ(e.find("unit")->text, catalogue[i].unit);
            EXPECT_EQ(e.find("better")->text,
                      betterName(catalogue[i].better));
        }
    };
    check("end_to_end", endToEndMetrics());
    check("per_layer", perLayerMetrics());
    const dmdc::JsonValue *workloads = doc.find("workloads");
    ASSERT_NE(workloads, nullptr);
    for (const dmdc::JsonValue &wl : workloads->items) {
        WorkloadKind kind;
        EXPECT_TRUE(parseWorkload(wl.find("name")->text, kind))
            << wl.find("name")->text;
    }
}

TEST(Reference, CheckNamesTheFirstDifferingColumn)
{
    const dmdc::SimOptions opt = shortRun("gzip", 2, "dmdc-global");
    dmdc::SimResult r;
    r.instructions = 20003;
    r.cycles = 17000;
    ReferenceTable table;
    table.add(opt, pinnedValues(r, 3001));
    EXPECT_EQ(table.check(opt, r), "");
    EXPECT_EQ(table.totalCommitted(opt), 23004u);
    r.cycles = 17001;
    EXPECT_NE(table.check(opt, r).find("cycles"), std::string::npos);
    EXPECT_NE(table.check(shortRun("mcf", 2, "baseline"), r)
                  .find("no reference row"),
              std::string::npos);
}
