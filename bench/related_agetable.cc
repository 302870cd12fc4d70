/**
 * @file
 * Related-work comparison (paper Sec. 7): DMDC versus the fused
 * age/address hash table of Garg et al. (ISLPED 2006). The paper
 * argues DMDC's two-step decoupling (tiny age registers + 1-bit-per-
 * chunk address table, checked only inside rare windows) is more
 * hardware- and energy-efficient, and that commit-time checking avoids
 * table pollution. This bench quantifies those claims on equal
 * table-entry budgets.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dmdc;

int
main(int argc, char **argv)
{
    return runHarness(argc, argv, {
        "Related work: DMDC vs. fused age-table (config 2, equal entry "
        "counts)",
        "DMDC (MICRO 2006), Sec. 7 discussion of Garg et al. [11]",
        [](const BenchArgs &args) {
            SimOptions base = args.baseOptions();
            base.configLevel = 2;
            Grid grid;
            for (const char *scheme :
                 {"baseline", "dmdc-global", "age-table"}) {
                base.scheme = scheme;
                grid.push_back(args.suite(base));
            }
            return grid;
        },
        [](const Suites &s) {
            const auto &baseline = s[0];
            std::printf("\n  %-8s %-12s %16s %14s %22s\n", "group",
                        "scheme", "replays/M-inst", "slowdown (%)",
                        "LQ energy savings (%)");
            for (const bool fp : {false, true}) {
                auto report = [&](const char *label,
                                  const std::vector<SimResult> &res,
                                  bool first) {
                    const Range replays = rangeOver(res, fp,
                        [](const SimResult &r) {
                            return r.perMInst(
                                r.falseReplays() +
                                static_cast<double>(r.trueReplays) +
                                static_cast<double>(r.ageTableReplays));
                        });
                    const Range slow = slowdownRange(baseline, res, fp);
                    const Range lq = savingRange(baseline, res, fp,
                        [](const SimResult &r) {
                            return r.energy.lqFunction();
                        });
                    std::printf("  %-8s %-12s %16s %14s %22s\n",
                                first ? (fp ? "FP" : "INT") : "", label,
                                fmt(meanOf(replays)).c_str(),
                                fmt(meanOf(slow), 2).c_str(),
                                fmt(meanOf(lq)).c_str());
                };
                report("dmdc", s[1], true);
                report("age-table", s[2], false);
            }
        },
        "\nExpected shape: the age table triggers more replays (wrong-path "
        "pollution, no\n"
        "safe-load equivalent, execute-time squash-all-younger) and spends "
        "more energy per\n"
        "access (age-wide entries written by every load), while DMDC "
        "confines table traffic\n"
        "to rare checking windows.\n"});
}
