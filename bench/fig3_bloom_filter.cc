/**
 * @file
 * Figure 3: filtering capability of 1 / 8 YLA registers versus
 * counting bloom filters (H0 hashing) of 32..1024 buckets, measured as
 * shadow filters on one baseline run per benchmark.
 */

#include <cstdio>
#include <memory>

#include "bench_common.hh"
#include "lsq/lsq_unit.hh"

using namespace dmdc;

int
main(int argc, char **argv)
{
    const std::vector<unsigned> bloom_sizes{32, 64, 128, 256, 512, 1024};
    std::vector<std::string> labels{"YLA-1", "YLA-8"};
    for (unsigned b : bloom_sizes)
        labels.push_back("BF-" + std::to_string(b));

    // Per benchmark: its run's private shadow filters, one per label.
    // Observer runs bypass the cache but still fan out across cores.
    std::vector<std::vector<std::unique_ptr<FilterObserver>>> observers;

    return runHarness(argc, argv, {
        "Figure 3: YLA vs. bloom-filter (address-only) filtering",
        "DMDC (MICRO 2006), Fig. 3; paper: even BF=1024 stays below 8 "
        "(and mostly 1) YLA registers",
        [&](const BenchArgs &args) {
            SimOptions base = args.baseOptions();
            base.scheme = "baseline";
            std::vector<SimOptions> runs = args.suite(base);
            for (SimOptions &opt : runs) {
                auto &obs = observers.emplace_back();
                obs.push_back(std::make_unique<YlaObserver>(
                    labels[0], 1, quadWordBytes));
                obs.push_back(std::make_unique<YlaObserver>(
                    labels[1], 8, quadWordBytes));
                for (std::size_t i = 0; i < bloom_sizes.size(); ++i) {
                    obs.push_back(std::make_unique<BloomObserver>(
                        labels[2 + i], bloom_sizes[i]));
                }
                for (auto &o : obs)
                    opt.observers.push_back(o.get());
            }
            return Grid{runs};
        },
        [&](const Suites &s) {
            for (const bool fp : {false, true}) {
                std::printf("\n%s applications -- %% of LQ searches "
                            "filtered (mean [min, max]):\n",
                            fp ? "FP" : "INT");
                for (std::size_t i = 0; i < labels.size(); ++i) {
                    std::printf(
                        "  %-10s %26s\n", labels[i].c_str(),
                        filteredRangeStr(observers, s[0], i, fp).c_str());
                }
            }
        },
        "\nPaper shape: age information (YLA) dominates address-only "
        "information (BF);\n"
        "a single YLA register outperforms kilobyte-scale bloom "
        "filters.\n"});
}
