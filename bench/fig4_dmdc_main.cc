/**
 * @file
 * Figure 4: the paper's main result. For configurations 1-3, baseline
 * vs. DMDC-global: (a) LQ-functionality energy savings, (b) slowdown,
 * (c) total processor-wide energy savings (including the energy cost
 * of the increased execution time), each as INT / FP group means with
 * min/max ranges.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dmdc;

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, {
        "Figure 4: DMDC main results (energy savings and slowdown, "
        "configs 1-3)",
        "DMDC (MICRO 2006), Fig. 4; paper: LQ energy savings 95-97%, "
        "slowdown ~0.3% avg, net savings 3-8%",
        // Per config: baseline, then dmdc-global.
        [](const BenchArgs &args) {
            Grid grid;
            SimOptions base = args.baseOptions();
            for (unsigned level = 1; level <= 3; ++level) {
                base.configLevel = level;
                for (const char *scheme : {"baseline", "dmdc-global"}) {
                    base.scheme = scheme;
                    grid.push_back(args.suite(base));
                }
            }
            return grid;
        },
        [](const Suites &s) {
            for (unsigned level = 1; level <= 3; ++level) {
                const auto &baseline = s[2 * (level - 1)];
                const auto &dmdc_res = s[2 * (level - 1) + 1];
                std::printf("\n--- config %u ---\n", level);
                std::printf("  %-6s %28s %24s %28s\n", "group",
                            "LQ energy savings (%)", "slowdown (%)",
                            "total energy savings (%)");
                for (const bool fp : {false, true}) {
                    const Range lq = savingRange(
                        baseline, dmdc_res, fp, [](const SimResult &r) {
                            return r.energy.lqFunction();
                        });
                    const Range slow =
                        slowdownRange(baseline, dmdc_res, fp);
                    const Range total = savingRange(
                        baseline, dmdc_res, fp, [](const SimResult &r) {
                            return r.energy.total();
                        });
                    std::printf("  %-6s %28s %24s %28s\n",
                                fp ? "FP" : "INT", rangeStr(lq).c_str(),
                                rangeStr(slow, 2).c_str(),
                                rangeStr(total).c_str());
                }
            }
        },
        "\nPaper reference: LQ energy savings ~95-97% (rising with "
        "config), slowdown avg ~0.3%\n"
        "(worst case 1.3% INT / 3.5% FP; FP best case is a speedup), "
        "net savings ~3-8%.\n"});
}
