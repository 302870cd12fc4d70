/**
 * @file
 * Ablation called out in Sec. 6.2.2: sensitivity of DMDC to the
 * checking-table size. The paper argues enlarging the 2K table has
 * diminishing returns because hashing conflicts are not the dominant
 * false-replay cause; shrinking it raises the hashing-conflict share.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dmdc;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);

    printBanner("Ablation: checking-table size sweep (global DMDC, "
                "config 2)",
                "DMDC (MICRO 2006), Sec. 6.2.2 discussion of Table 3");

    SimOptions base = args.baseOptions();
    base.configLevel = 2;
    base.scheme = "dmdc-global";

    std::printf("\n  %-8s %16s %16s %22s\n", "entries",
                "INT false/M", "FP false/M", "hash-conflict share");
    for (unsigned entries : {256u, 512u, 1024u, 2048u, 4096u, 8192u}) {
        base.tableEntriesOverride = entries;
        const auto res = runSuite(base, args.benchmarks);
        const Range fi = rangeOver(res, false, [](const SimResult &r) {
            return r.perMInst(r.falseReplays());
        });
        const Range ff = rangeOver(res, true, [](const SimResult &r) {
            return r.perMInst(r.falseReplays());
        });
        double hash = 0;
        double all = 0;
        for (const SimResult &r : res) {
            if (!r.valid)
                continue;
            hash += static_cast<double>(
                r.falseHashBefore + r.falseHashX + r.falseHashY);
            all += r.falseReplays();
        }
        std::printf("  %-8u %16s %16s %21s%%\n", entries,
                    fmt(fi.mean).c_str(), fmt(ff.mean).c_str(),
                    fmt(all > 0 ? hash / all * 100.0 : 0.0).c_str());
    }

    std::printf("\nPaper shape: at 2K entries hashing conflicts are a "
                "minority of false replays (11%%\n"
                "INT / 26%% FP), so growing the table further has "
                "diminishing returns.\n");
    return harnessExitCode();
}
