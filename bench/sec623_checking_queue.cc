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
    const std::vector<unsigned> queue_sizes{4, 8, 16, 32};

    return runHarness(argc, argv, {
        "Sec. 6.2.3: associative checking queue vs. hash table "
        "(config 2)",
        "DMDC (MICRO 2006), Sec. 6.2.3; paper: 2K-entry table ~ 16-entry "
        "associative queue (rough average)",
        // The hash table, then the queue at each size.
        [&](const BenchArgs &args) {
            SimOptions base = args.baseOptions();
            base.configLevel = 2;
            base.scheme = "dmdc-global";
            Grid grid{args.suite(base)};
            base.scheme = "dmdc-queue";
            for (unsigned entries : queue_sizes) {
                base.queueEntries = entries;
                grid.push_back(args.suite(base));
            }
            return grid;
        },
        [&](const Suites &s) {
            std::printf("\n  %-22s %14s %14s\n", "configuration",
                        "INT replays/M", "FP replays/M");
            auto report = [](const std::string &label,
                             const std::vector<SimResult> &res) {
                auto replays_per_m = [](const SimResult &r) {
                    return r.perMInst(r.falseReplays() +
                                      static_cast<double>(r.trueReplays));
                };
                std::printf(
                    "  %-22s %14s %14s\n", label.c_str(),
                    fmt(meanOf(rangeOver(res, false, replays_per_m)))
                        .c_str(),
                    fmt(meanOf(rangeOver(res, true, replays_per_m)))
                        .c_str());
            };
            report("hash table (2K)", s[0]);
            for (std::size_t i = 0; i < queue_sizes.size(); ++i) {
                report("assoc queue (" + std::to_string(queue_sizes[i]) +
                           ")",
                       s[1 + i]);
            }
        },
        "\nPaper shape: small queues overflow (conservative replays); "
        "around ~16 entries the\n"
        "average replay rate crosses the 2K-entry table's. "
        "Per-application equivalence points\n"
        "diverge wildly (the paper makes the same caveat).\n"});
}
