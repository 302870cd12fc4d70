/**
 * @file
 * Figure 2: percentage of LQ searches filtered (safe stores) versus
 * the number of YLA registers, for quad-word and cache-line
 * interleaving, INT and FP groups (mean and min/max range).
 *
 * All YLA geometries are measured as shadow filters on a single
 * baseline-timing run per benchmark: filtering does not alter timing.
 */

#include <cstdio>
#include <memory>

#include "bench_common.hh"
#include "lsq/lsq_unit.hh"

using namespace dmdc;

int
main(int argc, char **argv)
{
    const std::vector<unsigned> counts{1, 2, 4, 8, 16};
    constexpr unsigned line_bytes = 64;

    // Per benchmark: its run's private shadow filters, quad-word
    // interleaved for each of counts, then line interleaved. Observer
    // runs bypass the cache but still fan out across cores.
    std::vector<std::vector<std::unique_ptr<YlaObserver>>> observers;

    return runHarness(argc, argv, {
        "Figure 2: YLA filtering vs. register count and interleaving",
        "DMDC (MICRO 2006), Fig. 2; paper: 1 reg ~71% INT / ~80% FP, "
        "8 regs ~95-98%",
        [&](const BenchArgs &args) {
            SimOptions base = args.baseOptions();
            base.scheme = "baseline";
            std::vector<SimOptions> runs = args.suite(base);
            for (SimOptions &opt : runs) {
                auto &obs = observers.emplace_back();
                for (unsigned c : counts) {
                    obs.push_back(std::make_unique<YlaObserver>(
                        "qw-" + std::to_string(c), c, quadWordBytes));
                }
                for (unsigned c : counts) {
                    obs.push_back(std::make_unique<YlaObserver>(
                        "line-" + std::to_string(c), c, line_bytes));
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
                std::printf("  %-10s %26s %26s\n", "#YLA",
                            "quad-word interleaved",
                            "cache-line interleaved");
                for (std::size_t i = 0; i < counts.size(); ++i) {
                    std::printf(
                        "  %-10u %26s %26s\n", counts[i],
                        filteredRangeStr(observers, s[0], i, fp).c_str(),
                        filteredRangeStr(observers, s[0],
                                         counts.size() + i, fp)
                            .c_str());
                }
            }
        },
        "\nPaper reference points: 1 qw-YLA ~71% (INT) / ~80% (FP); "
        "8 qw-YLAs ~95-98%;\n"
        "16 line-interleaved ~ 4 quad-word-interleaved.\n"});
}
