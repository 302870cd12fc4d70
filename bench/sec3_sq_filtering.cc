/**
 * @file
 * Section 3 ("Filtering for stores") observation: the fraction of
 * loads older than every in-flight store — those could skip the SQ
 * search via an oldest-store-age register. The paper reports ~20%.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace dmdc;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);

    printBanner("Sec. 3: SQ-side age filtering potential "
                "(oldest-in-flight-store register)",
                "DMDC (MICRO 2006), Sec. 3; paper: ~20% of loads "
                "could bypass the SQ search");

    SimOptions base = args.baseOptions();
    base.configLevel = 2;
    base.scheme = "baseline";
    const auto results = runSuite(base, args.benchmarks);

    std::printf("\n  %-6s %34s\n", "group",
                "loads older than all stores (%)");
    for (const bool fp : {false, true}) {
        const Range r = rangeOver(results, fp, [](const SimResult &s) {
            return s.sqSearches > 0
                ? static_cast<double>(s.loadsOlderThanAllStores) /
                      static_cast<double>(s.sqSearches) * 100.0
                : 0.0;
        });
        std::printf("  %-6s %34s\n", fp ? "FP" : "INT",
                    rangeStr(r).c_str());
    }

    // Extension: actually enable the filter (the paper leaves this to
    // future work) and measure the SQ-search and energy effect.
    SimOptions filt = base;
    filt.sqFilter = true;
    const auto filtered = runSuite(filt, args.benchmarks);

    std::printf("\nWith the filter enabled (extension):\n");
    std::printf("  %-6s %26s %22s %14s\n", "group",
                "SQ searches filtered (%)", "SQ energy savings (%)",
                "slowdown (%)");
    for (const bool fp : {false, true}) {
        const Range frac = rangeOver(filtered, fp,
            [](const SimResult &s) {
                const double all = static_cast<double>(
                    s.sqSearches + s.sqSearchesFiltered);
                return all > 0 ? s.sqSearchesFiltered / all * 100.0
                               : 0.0;
            });
        const Range sq_sav = savingRange(results, filtered, fp,
            [](const SimResult &s) { return s.energy.sq; });
        const Range slow = slowdownRange(results, filtered, fp);
        std::printf("  %-6s %26s %22s %14s\n", fp ? "FP" : "INT",
                    fmt(frac.mean).c_str(), fmt(sq_sav.mean).c_str(),
                    fmt(slow.mean, 2).c_str());
    }

    std::printf("\nPaper reference: about 20%%; the paper leaves SQ "
                "filtering to future work but the\n"
                "mechanism is implemented here as an extension "
                "(exact, so slowdown is ~0).\n");
    return harnessExitCode();
}
