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
    const BenchArgs args = BenchArgs::parse(argc, argv);

    printBanner("Table 2: checking-window contents (global DMDC, "
                "config 2)",
                "DMDC (MICRO 2006), Table 2; paper: ~33 instructions, "
                "~10 loads, ~4 safe loads");

    SimOptions base = args.baseOptions();
    base.configLevel = 2;
    base.scheme = "dmdc-global";
    const auto results = runSuite(base, args.benchmarks);

    printWindowTable(results);

    std::printf("\nSurrounding Sec. 6.2.2 statistics:\n");
    std::printf("  %-6s %22s %24s %18s %18s\n", "group",
                "%% cycles checking", "%% windows single-store",
                "safe stores", "safe loads");
    for (const bool fp : {false, true}) {
        const Range check = rangeOver(results, fp,
            [](const SimResult &r) {
                return r.checkingCycleFrac * 100;
            });
        const Range single = rangeOver(results, fp,
            [](const SimResult &r) {
                return r.windowSingleStoreFrac * 100;
            });
        const Range sstores = rangeOver(results, fp,
            [](const SimResult &r) { return r.safeStoreFrac * 100; });
        const Range sloads = rangeOver(results, fp,
            [](const SimResult &r) { return r.safeLoadFrac * 100; });
        std::printf("  %-6s %22s %24s %18s %18s\n", fp ? "FP" : "INT",
                    fmt(check.mean).c_str(), fmt(single.mean).c_str(),
                    fmt(sstores.mean).c_str(),
                    fmt(sloads.mean).c_str());
    }

    std::printf("\nPaper reference: INT 33.6/10.3/3.57, FP "
                "33.0/10.1/4.10; cycles in checking mode ~10%%\n"
                "(INT) / ~2.5%% (FP); 57%% (INT) / 63%% (FP) of "
                "windows contain one unsafe store;\n"
                "safe loads 81%% (INT) / 94%% (FP).\n");
    return harnessExitCode();
}
