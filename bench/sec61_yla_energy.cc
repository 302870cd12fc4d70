/**
 * @file
 * Section 6.1 numbers: energy effect of YLA filtering alone (the
 * associative LQ is kept, only searches are filtered): LQ-energy
 * reduction and core-wide savings, at zero performance cost.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dmdc;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);

    printBanner("Sec. 6.1: YLA-only energy savings (8 quad-word "
                "registers, config 2)",
                "DMDC (MICRO 2006), Sec. 6.1; paper: ~32.4% LQ energy "
                "reduction, ~1.7% core-wide, no slowdown");

    SimOptions base = args.baseOptions();
    base.configLevel = 2;

    base.scheme = "baseline";
    const auto baseline = runSuite(base, args.benchmarks);
    base.scheme = "yla";
    const auto yla = runSuite(base, args.benchmarks);

    std::printf("\n  %-6s %22s %24s %14s %18s\n", "group",
                "LQ energy savings (%)", "total energy savings (%)",
                "slowdown (%)", "searches filtered");
    for (const bool fp : {false, true}) {
        const Range lq = savingRange(baseline, yla, fp,
            [](const SimResult &r) { return r.energy.lqFunction(); });
        const Range total = savingRange(baseline, yla, fp,
            [](const SimResult &r) { return r.energy.total(); });
        const Range slow = slowdownRange(baseline, yla, fp);
        const Range filt = rangeOver(yla, fp, [](const SimResult &r) {
            const double all = static_cast<double>(
                r.lqSearches + r.lqSearchesFiltered);
            return all > 0 ? r.lqSearchesFiltered / all * 100 : 0.0;
        });
        std::printf("  %-6s %22s %24s %14s %17s%%\n",
                    fp ? "FP" : "INT", rangeStr(lq).c_str(),
                    rangeStr(total, 2).c_str(), fmt(slow.mean, 2).c_str(),
                    fmt(filt.mean).c_str());
    }

    std::printf("\nPaper reference: 8 YLA registers filter 95-98%% of "
                "searches, cutting LQ energy ~32.4%%\n"
                "and core energy ~1.7%%, with zero performance "
                "impact (filtering is timing-neutral).\n");
    return harnessExitCode();
}
