/**
 * @file
 * Figure 5: slowdown of global vs. local DMDC across configs 1-3,
 * INT / FP means with min/max ranges.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dmdc;

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, {
        "Figure 5: slowdown, global vs. local DMDC",
        "DMDC (MICRO 2006), Fig. 5; paper: local moderately better, "
        "notably smaller worst case (esp. FP)",
        // Per config: baseline, dmdc-global, dmdc-local.
        [](const BenchArgs &args) {
            Grid grid;
            SimOptions base = args.baseOptions();
            for (unsigned level = 1; level <= 3; ++level) {
                base.configLevel = level;
                for (const char *scheme :
                     {"baseline", "dmdc-global", "dmdc-local"}) {
                    base.scheme = scheme;
                    grid.push_back(args.suite(base));
                }
            }
            return grid;
        },
        [](const Suites &s) {
            for (unsigned level = 1; level <= 3; ++level) {
                const auto &baseline = s[3 * (level - 1)];
                const auto &global_res = s[3 * (level - 1) + 1];
                const auto &local_res = s[3 * (level - 1) + 2];
                std::printf("\n--- config %u: slowdown (%%) ---\n",
                            level);
                std::printf("  %-6s %26s %26s\n", "group", "global DMDC",
                            "local DMDC");
                for (const bool fp : {false, true}) {
                    const Range g =
                        slowdownRange(baseline, global_res, fp);
                    const Range l =
                        slowdownRange(baseline, local_res, fp);
                    std::printf("  %-6s %26s %26s\n", fp ? "FP" : "INT",
                                rangeStr(g, 2).c_str(),
                                rangeStr(l, 2).c_str());
                }
            }
        },
        "\nPaper shape: both small; the local variant's worst-case "
        "slowdown is noticeably lower,\n"
        "especially for FP applications.\n"});
}
