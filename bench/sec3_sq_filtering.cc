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
    return runHarness(argc, argv, {
        "Sec. 3: SQ-side age filtering potential (oldest-in-flight-store "
        "register)",
        "DMDC (MICRO 2006), Sec. 3; paper: ~20% of loads could bypass "
        "the SQ search",
        // Baseline, then with the filter enabled: an extension (the
        // paper leaves it to future work) measuring the SQ-search and
        // energy effect.
        [](const BenchArgs &args) {
            SimOptions base = args.baseOptions();
            base.configLevel = 2;
            base.scheme = "baseline";
            Grid grid{args.suite(base)};
            base.sqFilter = true;
            grid.push_back(args.suite(base));
            return grid;
        },
        [](const Suites &s) {
            const auto &results = s[0];
            const auto &filtered = s[1];
            std::printf("\n  %-6s %34s\n", "group",
                        "loads older than all stores (%)");
            for (const bool fp : {false, true}) {
                const Range older = rangeOver(results, fp,
                    [](const SimResult &r) {
                        return r.sqSearches > 0
                            ? static_cast<double>(
                                  r.loadsOlderThanAllStores) /
                                static_cast<double>(r.sqSearches) * 100.0
                            : 0.0;
                    });
                std::printf("  %-6s %34s\n", fp ? "FP" : "INT",
                            rangeStr(older).c_str());
            }

            std::printf("\nWith the filter enabled (extension):\n");
            std::printf("  %-6s %26s %22s %14s\n", "group",
                        "SQ searches filtered (%)",
                        "SQ energy savings (%)", "slowdown (%)");
            for (const bool fp : {false, true}) {
                const Range frac = rangeOver(filtered, fp,
                    [](const SimResult &r) {
                        const double all = static_cast<double>(
                            r.sqSearches + r.sqSearchesFiltered);
                        return all > 0
                            ? r.sqSearchesFiltered / all * 100.0 : 0.0;
                    });
                const Range sq_sav = savingRange(results, filtered, fp,
                    [](const SimResult &r) { return r.energy.sq; });
                const Range slow = slowdownRange(results, filtered, fp);
                std::printf("  %-6s %26s %22s %14s\n", fp ? "FP" : "INT",
                            fmt(meanOf(frac)).c_str(),
                            fmt(meanOf(sq_sav)).c_str(),
                            fmt(meanOf(slow), 2).c_str());
            }
        },
        "\nPaper reference: about 20%; the paper leaves SQ filtering to "
        "future work but the\n"
        "mechanism is implemented here as an extension (exact, so "
        "slowdown is ~0).\n"});
}
