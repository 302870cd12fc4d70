/**
 * @file
 * Section 6.2.3: associative checking queue vs. hash table. Sweeps the
 * queue size and reports replay rates next to the 2K-entry table's,
 * looking for the paper's rough equivalence point (~16 entries).
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dmdc;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);

    printBanner("Sec. 6.2.3: associative checking queue vs. hash "
                "table (config 2)",
                "DMDC (MICRO 2006), Sec. 6.2.3; paper: 2K-entry table "
                "~ 16-entry associative queue (rough average)");

    SimOptions base = args.baseOptions();
    base.configLevel = 2;

    base.scheme = "dmdc-global";
    const auto table_res = runSuite(base, args.benchmarks);

    std::printf("\n  %-22s %14s %14s\n", "configuration",
                "INT replays/M", "FP replays/M");
    auto report = [&](const char *label,
                      const std::vector<SimResult> &res) {
        const Range ri = rangeOver(res, false, [](const SimResult &r) {
            return r.perMInst(r.falseReplays() +
                              static_cast<double>(r.trueReplays));
        });
        const Range rf = rangeOver(res, true, [](const SimResult &r) {
            return r.perMInst(r.falseReplays() +
                              static_cast<double>(r.trueReplays));
        });
        std::printf("  %-22s %14s %14s\n", label,
                    fmt(ri.mean).c_str(), fmt(rf.mean).c_str());
    };
    report("hash table (2K)", table_res);

    base.scheme = "dmdc-queue";
    for (unsigned entries : {4u, 8u, 16u, 32u}) {
        base.queueEntries = entries;
        const auto q_res = runSuite(base, args.benchmarks);
        char label[64];
        std::snprintf(label, sizeof(label), "assoc queue (%u)",
                      entries);
        report(label, q_res);
    }

    std::printf("\nPaper shape: small queues overflow (conservative "
                "replays); around ~16 entries the\n"
                "average replay rate crosses the 2K-entry table's. "
                "Per-application equivalence points\n"
                "diverge wildly (the paper makes the same caveat).\n");
    return harnessExitCode();
}
