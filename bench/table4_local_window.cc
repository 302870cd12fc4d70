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
    return runHarness(argc, argv, {
        "Table 4: checking-window contents (LOCAL DMDC, config 2)",
        "DMDC (MICRO 2006), Table 4; paper: INT 25.3/7.92/2.27, FP "
        "28.9/8.61/3.01",
        [](const BenchArgs &args) {
            SimOptions base = args.baseOptions();
            base.configLevel = 2;
            Grid grid;
            for (const char *scheme : {"dmdc-local", "dmdc-global"}) {
                base.scheme = scheme;
                grid.push_back(args.suite(base));
            }
            return grid;
        },
        [](const Suites &s) {
            const auto &local_res = s[0];
            const auto &global_res = s[1];
            std::printf("\nLocal DMDC:");
            printWindowTable(local_res);
            std::printf("\nGlobal DMDC (Table 2, for comparison):");
            printWindowTable(global_res);

            std::printf("\nWindow shrink (local vs. global, %%):\n");
            for (const bool fp : {false, true}) {
                auto window = [](const SimResult &r) {
                    return r.windowInstrs;
                };
                const Range g = rangeOver(global_res, fp, window);
                const Range l = rangeOver(local_res, fp, window);
                std::printf("  %-6s %s\n", fp ? "FP" : "INT",
                            fmt(reductionPct(l, g), 0, "%").c_str());
            }
        },
        "\nPaper shape: local windows 13-25% shorter; safe-load fraction "
        "inside windows drops faster.\n"});
}
