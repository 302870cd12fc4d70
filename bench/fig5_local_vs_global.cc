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
    const BenchArgs args = BenchArgs::parse(argc, argv);

    printBanner("Figure 5: slowdown, global vs. local DMDC",
                "DMDC (MICRO 2006), Fig. 5; paper: local moderately "
                "better, notably smaller worst case (esp. FP)");

    for (unsigned level = 1; level <= 3; ++level) {
        SimOptions base = args.baseOptions();
        base.configLevel = level;

        base.scheme = "baseline";
        const auto baseline = runSuite(base, args.benchmarks);
        base.scheme = "dmdc-global";
        const auto global_res = runSuite(base, args.benchmarks);
        base.scheme = "dmdc-local";
        const auto local_res = runSuite(base, args.benchmarks);

        std::printf("\n--- config %u: slowdown (%%) ---\n", level);
        std::printf("  %-6s %26s %26s\n", "group", "global DMDC",
                    "local DMDC");
        for (const bool fp : {false, true}) {
            const Range g = slowdownRange(baseline, global_res, fp);
            const Range l = slowdownRange(baseline, local_res, fp);
            std::printf("  %-6s %26s %26s\n", fp ? "FP" : "INT",
                        rangeStr(g, 2).c_str(), rangeStr(l, 2).c_str());
        }
    }

    std::printf("\nPaper shape: both small; the local variant's "
                "worst-case slowdown is noticeably lower,\n"
                "especially for FP applications.\n");
    return harnessExitCode();
}
