/**
 * @file
 * Shared row formatters for the Tables 2-5 benches (checking-window
 * statistics and false-replay breakdowns). A group whose runs all
 * degraded keeps its rows, with "n/a" cells.
 */

#ifndef DMDC_BENCH_TABLE_HELPERS_HH
#define DMDC_BENCH_TABLE_HELPERS_HH

#include <cstdint>
#include <cstdio>
#include <optional>
#include <vector>

#include "sim/campaign.hh"

namespace dmdc
{

/** Table 2 / Table 4 shape: per-group checking-window contents. */
inline void
printWindowTable(const std::vector<SimResult> &results)
{
    std::printf("\n  %-6s %14s %10s %12s\n", "group", "instructions",
                "loads", "safe loads");
    for (const bool fp : {false, true}) {
        const Range instrs = rangeOver(results, fp,
            [](const SimResult &r) { return r.windowInstrs; });
        const Range loads = rangeOver(results, fp,
            [](const SimResult &r) { return r.windowLoads; });
        const Range safe = rangeOver(results, fp,
            [](const SimResult &r) { return r.windowSafeLoads; });
        std::printf("  %-6s %14s %10s %12s\n", fp ? "FP" : "INT",
                    fmt(meanOf(instrs)).c_str(),
                    fmt(meanOf(loads)).c_str(),
                    fmt(meanOf(safe), 2).c_str());
    }
}

/** Table 3 / Table 5 shape: false replays per million instructions. */
inline void
printReplayBreakdown(const std::vector<SimResult> &results)
{
    std::printf("\n  (false replays per 1M committed instructions; "
                "%% of all false replays)\n");
    std::printf("  %-6s %-16s %18s %18s %18s %10s\n", "group", "cause",
                "load before store", "X (own window)",
                "Y (merged windows)", "total");
    for (const bool fp : {false, true}) {
        auto per_m = [&](std::uint64_t SimResult::*count) {
            return meanOf(rangeOver(results, fp,
                [count](const SimResult &r) {
                    return r.perMInst(static_cast<double>(r.*count));
                }));
        };
        const auto addr_x = per_m(&SimResult::falseAddrX);
        const auto addr_y = per_m(&SimResult::falseAddrY);
        const auto hash_b = per_m(&SimResult::falseHashBefore);
        const auto hash_x = per_m(&SimResult::falseHashX);
        const auto hash_y = per_m(&SimResult::falseHashY);
        const auto overflow = per_m(&SimResult::falseOverflow);
        const auto true_r = per_m(&SimResult::trueReplays);
        // Every mean is empty or none is: they share one run set.
        const std::optional<double> total = addr_x
            ? std::optional<double>(*addr_x + *addr_y + *hash_b +
                                    *hash_x + *hash_y + *overflow)
            : std::nullopt;
        auto cell = [&total](const std::optional<double> &v) {
            if (!v)
                return fmt(v);
            return fmt(*v) + " (" +
                fmt(*total > 0 ? *v / *total * 100.0 : 0.0, 0) + "%)";
        };
        std::printf("  %-6s %-16s %18s %18s %18s %10s\n",
                    fp ? "FP" : "INT", "Address match", "-",
                    cell(addr_x).c_str(), cell(addr_y).c_str(), "");
        std::printf("  %-6s %-16s %18s %18s %18s %10s\n", "",
                    "Hashing conflict", cell(hash_b).c_str(),
                    cell(hash_x).c_str(), cell(hash_y).c_str(),
                    fmt(total).c_str());
        if (overflow.value_or(0.0) > 0) {
            std::printf("  %-6s %-16s %56s %10s\n", "",
                        "Queue overflow", "", cell(overflow).c_str());
        }
        std::printf("  %-6s %-16s (true replays: %s per 1M)\n", "",
                    "", fmt(true_r, 2).c_str());
    }
}

/**
 * Percent by which the group mean @p after is below @p before (0 when
 * @p before's mean is not positive); empty when either has no run.
 */
inline std::optional<double>
reductionPct(const Range &after, const Range &before)
{
    if (after.n == 0 || before.n == 0)
        return std::nullopt;
    return before.mean > 0 ? (1.0 - after.mean / before.mean) * 100.0
                           : 0.0;
}

} // namespace dmdc

#endif // DMDC_BENCH_TABLE_HELPERS_HH
