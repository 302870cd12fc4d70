/**
 * @file
 * Table 4: checking-window contents under LOCAL DMDC (config 2), for
 * comparison with Table 2's global windows: local windows are 13-25%
 * shorter with proportionally fewer loads.
 */

#include <cstdio>

#include "bench_common.hh"
#include "table_helpers.hh"

using namespace dmdc;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);

    printBanner("Table 4: checking-window contents (LOCAL DMDC, "
                "config 2)",
                "DMDC (MICRO 2006), Table 4; paper: INT 25.3/7.92/"
                "2.27, FP 28.9/8.61/3.01");

    SimOptions base = args.baseOptions();
    base.configLevel = 2;

    base.scheme = "dmdc-local";
    const auto local_res = runSuite(base, args.benchmarks);
    std::printf("\nLocal DMDC:");
    printWindowTable(local_res);

    base.scheme = "dmdc-global";
    const auto global_res = runSuite(base, args.benchmarks);
    std::printf("\nGlobal DMDC (Table 2, for comparison):");
    printWindowTable(global_res);

    std::printf("\nWindow shrink (local vs. global, %%):\n");
    for (const bool fp : {false, true}) {
        const Range g = rangeOver(global_res, fp,
            [](const SimResult &r) { return r.windowInstrs; });
        const Range l = rangeOver(local_res, fp,
            [](const SimResult &r) { return r.windowInstrs; });
        const double shrink = g.mean > 0
            ? (1.0 - l.mean / g.mean) * 100.0 : 0.0;
        std::printf("  %-6s %s%%\n", fp ? "FP" : "INT",
                    fmt(shrink, 0).c_str());
    }
    std::printf("\nPaper shape: local windows 13-25%% shorter; safe-"
                "load fraction inside windows drops faster.\n");
    return harnessExitCode();
}
