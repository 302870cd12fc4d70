/**
 * @file
 * Ablation called out in Sec. 6.2.2: sensitivity of DMDC to the
 * checking-table size. The paper argues enlarging the 2K table has
 * diminishing returns because hashing conflicts are not the dominant
 * false-replay cause; shrinking it raises the hashing-conflict share.
 */

#include <cstdio>
#include <optional>

#include "bench_common.hh"

using namespace dmdc;

int
main(int argc, char **argv)
{
    const std::vector<unsigned> sizes{256, 512, 1024, 2048, 4096, 8192};

    return runHarness(argc, argv, {
        "Ablation: checking-table size sweep (global DMDC, config 2)",
        "DMDC (MICRO 2006), Sec. 6.2.2 discussion of Table 3",
        [&](const BenchArgs &args) {
            SimOptions base = args.baseOptions();
            base.configLevel = 2;
            base.scheme = "dmdc-global";
            Grid grid;
            for (unsigned entries : sizes) {
                base.tableEntriesOverride = entries;
                grid.push_back(args.suite(base));
            }
            return grid;
        },
        [&](const Suites &s) {
            std::printf("\n  %-8s %16s %16s %22s\n", "entries",
                        "INT false/M", "FP false/M",
                        "hash-conflict share");
            auto false_per_m = [](const SimResult &r) {
                return r.perMInst(r.falseReplays());
            };
            for (std::size_t i = 0; i < sizes.size(); ++i) {
                const auto &res = s[i];
                std::size_t valid = 0;
                double hash = 0;
                double all = 0;
                for (const SimResult &r : res) {
                    if (!r.valid)
                        continue;
                    ++valid;
                    hash += static_cast<double>(
                        r.falseHashBefore + r.falseHashX + r.falseHashY);
                    all += r.falseReplays();
                }
                std::optional<double> share;
                if (valid)
                    share = all > 0 ? hash / all * 100.0 : 0.0;
                std::printf(
                    "  %-8u %16s %16s %22s\n", sizes[i],
                    fmt(meanOf(rangeOver(res, false, false_per_m)))
                        .c_str(),
                    fmt(meanOf(rangeOver(res, true, false_per_m)))
                        .c_str(),
                    fmt(share, 1, "%").c_str());
            }
        },
        "\nPaper shape: at 2K entries hashing conflicts are a minority of "
        "false replays (11%\n"
        "INT / 26% FP), so growing the table further has diminishing "
        "returns.\n"});
}
