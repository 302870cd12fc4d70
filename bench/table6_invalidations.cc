/**
 * @file
 * Table 6: impact of external invalidations on coherent DMDC
 * (config 2): %% cycles in checking mode, relative checking-window
 * size, relative false-replay rate, and slowdown, for 0 / 1 / 10 /
 * 100 invalidations per 1000 cycles.
 */

#include <cstdio>
#include <optional>

#include "bench_common.hh"

using namespace dmdc;

int
main(int argc, char **argv)
{
    const std::vector<double> rates{0.0, 1.0, 10.0, 100.0};

    return runHarness(argc, argv, {
        "Table 6: external-invalidation sweep (coherent global DMDC, "
        "config 2)",
        "DMDC (MICRO 2006), Table 6; paper: moderate impact up to "
        "10/1000 cycles, stress at 100",
        // Baseline (conventional LQ, no invalidations) for slowdown,
        // then dmdc-global at each rate.
        [&](const BenchArgs &args) {
            SimOptions base = args.baseOptions();
            base.configLevel = 2;
            base.coherence = true;
            base.scheme = "baseline";
            Grid grid{args.suite(base)};
            base.scheme = "dmdc-global";
            for (double rate : rates) {
                base.invalidationsPer1kCycles = rate;
                grid.push_back(args.suite(base));
            }
            return grid;
        },
        [&](const Suites &s) {
            // Group means of one dmdc-global suite.
            struct Row
            {
                std::optional<double> check, window, falseReplays,
                    slowdown;
            };
            // A rate's value relative to rate 0's; undefined (empty)
            // when rate 0's value is 0.
            auto relative = [](std::optional<double> v,
                               std::optional<double> at_zero)
                -> std::optional<double> {
                if (!v || !at_zero || *at_zero <= 0)
                    return std::nullopt;
                return *v / *at_zero;
            };
            for (const bool fp : {false, true}) {
                std::vector<Row> rows;
                for (std::size_t i = 0; i < rates.size(); ++i) {
                    const auto &res = s[1 + i];
                    rows.push_back(
                        {meanOf(rangeOver(res, fp,
                             [](const SimResult &r) {
                                 return r.checkingCycleFrac * 100;
                             })),
                         meanOf(rangeOver(res, fp,
                             [](const SimResult &r) {
                                 return r.windowInstrs;
                             })),
                         meanOf(rangeOver(res, fp,
                             [](const SimResult &r) {
                                 return r.perMInst(r.falseReplays());
                             })),
                         meanOf(slowdownRange(s[0], res, fp))});
                }
                auto print_row = [&rows](const char *label,
                                         int precision, auto &&value) {
                    std::printf("\n  %-34s", label);
                    for (const Row &row : rows)
                        std::printf(" %9s",
                                    fmt(value(row), precision).c_str());
                };
                std::printf("\n%s applications:\n", fp ? "FP" : "INT");
                std::printf("  %-34s", "invalidations per 1000 cycles");
                for (double rate : rates)
                    std::printf(" %9.0f", rate);
                print_row("% cycles in checking mode", 1,
                          [](const Row &r) { return r.check; });
                print_row("relative checking window size", 2,
                          [&](const Row &r) {
                              return relative(r.window, rows[0].window);
                          });
                print_row("relative false replay rate", 2,
                          [&](const Row &r) {
                              return relative(r.falseReplays,
                                              rows[0].falseReplays);
                          });
                print_row("slowdown (%)", 2,
                          [](const Row &r) { return r.slowdown; });
                std::printf("\n");
            }
        },
        "\nPaper shape: statistics rise moderately up to 10 "
        "invalidations/1000 cycles; at 100 the\n"
        "false-replay rate is ~5x and slowdown grows but stays near "
        "~1%.\n"});
}
