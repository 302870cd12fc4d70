/**
 * @file
 * Figure 3: filtering capability of 1 / 8 YLA registers versus
 * counting bloom filters (H0 hashing) of 32..1024 buckets, measured as
 * shadow filters on one baseline run per benchmark.
 */

#include <cstdio>
#include <memory>

#include "bench_common.hh"
#include "common/logging.hh"
#include "lsq/lsq_unit.hh"

using namespace dmdc;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);

    printBanner("Figure 3: YLA vs. bloom-filter (address-only) "
                "filtering",
                "DMDC (MICRO 2006), Fig. 3; paper: even BF=1024 stays "
                "below 8 (and mostly 1) YLA registers");

    const std::vector<unsigned> bloom_sizes{32, 64, 128, 256, 512,
                                            1024};

    struct Series
    {
        std::string label;
        std::vector<double> intVals;
        std::vector<double> fpVals;
    };
    std::vector<Series> series;
    series.push_back({"YLA-1", {}, {}});
    series.push_back({"YLA-8", {}, {}});
    for (unsigned b : bloom_sizes)
        series.push_back({"BF-" + std::to_string(b), {}, {}});

    // One run per benchmark with private shadow filters; uncacheable
    // but parallel via the campaign engine.
    std::vector<std::vector<std::unique_ptr<FilterObserver>>> observers;
    std::vector<SimOptions> runs;
    for (const std::string &bench : args.benchmarks) {
        auto &obs = observers.emplace_back();
        obs.push_back(
            std::make_unique<YlaObserver>("YLA-1", 1, quadWordBytes));
        obs.push_back(
            std::make_unique<YlaObserver>("YLA-8", 8, quadWordBytes));
        for (unsigned b : bloom_sizes) {
            obs.push_back(std::make_unique<BloomObserver>(
                "BF-" + std::to_string(b), b));
        }

        SimOptions opt = args.baseOptions();
        opt.benchmark = bench;
        opt.scheme = "baseline";
        for (auto &o : obs)
            opt.observers.push_back(o.get());
        runs.push_back(std::move(opt));
    }

    const CampaignResult cr = runCampaignChecked(runs);

    for (std::size_t b = 0; b < args.benchmarks.size(); ++b) {
        if (!cr.outcomes[b].ok())
            continue; // degraded run: its shadow filters saw nothing
        const bool fp = specIsFp(args.benchmarks[b]);
        for (std::size_t i = 0; i < observers[b].size(); ++i) {
            (fp ? series[i].fpVals : series[i].intVals)
                .push_back(observers[b][i]->filteredFraction());
        }
    }

    auto print_group = [&](const char *group, bool fp) {
        std::printf("\n%s applications -- %% of LQ searches filtered "
                    "(mean [min, max]):\n", group);
        for (const Series &s : series) {
            const Range r = makeRange(fp ? s.fpVals : s.intVals);
            std::printf("  %-10s %26s\n", s.label.c_str(),
                        rangeStr(Range{r.min * 100, r.mean * 100,
                                       r.max * 100, r.n}).c_str());
        }
    };
    print_group("INT", false);
    print_group("FP", true);

    std::printf("\nPaper shape: age information (YLA) dominates "
                "address-only information (BF);\n"
                "a single YLA register outperforms kilobyte-scale "
                "bloom filters.\n");
    return harnessExitCode();
}
