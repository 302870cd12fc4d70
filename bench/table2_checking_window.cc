/**
 * @file
 * Table 2: number of instructions, loads and safe loads within a
 * checking window (global DMDC, config 2), plus the surrounding
 * Sec. 6.2.2 statistics: %% of cycles in checking mode, %% of windows
 * with a single unsafe store, overall safe-load fraction.
 */

#include <cstdio>

#include "bench_common.hh"
#include "table_helpers.hh"

using namespace dmdc;

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, {
        "Table 2: checking-window contents (global DMDC, config 2)",
        "DMDC (MICRO 2006), Table 2; paper: ~33 instructions, ~10 loads, "
        "~4 safe loads",
        [](const BenchArgs &args) {
            SimOptions base = args.baseOptions();
            base.configLevel = 2;
            base.scheme = "dmdc-global";
            return Grid{args.suite(base)};
        },
        [](const Suites &s) {
            const auto &results = s[0];
            printWindowTable(results);

            std::printf("\nSurrounding Sec. 6.2.2 statistics:\n");
            std::printf("  %-6s %22s %24s %18s %18s\n", "group",
                        "%% cycles checking", "%% windows single-store",
                        "safe stores", "safe loads");
            for (const bool fp : {false, true}) {
                auto mean = [&](double SimResult::*frac) {
                    return fmt(meanOf(rangeOver(results, fp,
                        [frac](const SimResult &r) {
                            return r.*frac * 100;
                        })));
                };
                std::printf("  %-6s %22s %24s %18s %18s\n",
                            fp ? "FP" : "INT",
                            mean(&SimResult::checkingCycleFrac).c_str(),
                            mean(&SimResult::windowSingleStoreFrac)
                                .c_str(),
                            mean(&SimResult::safeStoreFrac).c_str(),
                            mean(&SimResult::safeLoadFrac).c_str());
            }
        },
        "\nPaper reference: INT 33.6/10.3/3.57, FP 33.0/10.1/4.10; "
        "cycles in checking mode ~10%\n"
        "(INT) / ~2.5% (FP); 57% (INT) / 63% (FP) of windows contain one "
        "unsafe store;\n"
        "safe loads 81% (INT) / 94% (FP).\n"});
}
