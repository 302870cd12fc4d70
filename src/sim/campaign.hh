/**
 * @file
 * Campaign helpers for the bench harnesses: submit a run list as one
 * checked campaign, compare schemes over a benchmark group, and
 * format table cells. A cell of a group whose runs all degraded
 * prints "n/a" (rangeStr, and fmt of an empty optional), never a
 * made-up zero.
 */

#ifndef DMDC_SIM_CAMPAIGN_HH
#define DMDC_SIM_CAMPAIGN_HH

#include <optional>
#include <string>
#include <vector>

#include "sim/campaign_runner.hh"
#include "sim/simulator.hh"

namespace dmdc
{

/**
 * Run @p runs as one campaign on the global runner. Each degraded
 * (failed / timed-out / skipped) slot keeps its identity fields but
 * is marked invalid, so tables can still label its row while the
 * aggregation helpers skip it. The caller reads the degradation off
 * the returned CampaignResult (degradedRuns()).
 */
CampaignResult runCampaignChecked(const std::vector<SimOptions> &runs);

/**
 * Per-benchmark slowdown (%) of @p test versus @p baseline, aggregated
 * over one group. Negative values are speedups.
 */
Range slowdownRange(const std::vector<SimResult> &baseline,
                    const std::vector<SimResult> &test, bool fp_group);

/**
 * Per-benchmark relative saving (%) of a metric between baseline and
 * test, aggregated over one group.
 */
template <typename Fn>
Range
savingRange(const std::vector<SimResult> &baseline,
            const std::vector<SimResult> &test, bool fp_group, Fn &&fn)
{
    std::vector<double> v;
    v.reserve(baseline.size());
    for (const SimResult &b : baseline) {
        if (!b.valid || b.fp != fp_group)
            continue;
        const SimResult *t = findValidResult(test, b.benchmark);
        if (!t)
            continue; // degraded pair: drop from the aggregate
        const double base_val = fn(b);
        const double test_val = fn(*t);
        if (base_val > 0)
            v.push_back((base_val - test_val) / base_val * 100.0);
    }
    return makeRange(v);
}

// ---- formatting helpers ----

/** "12.3" with fixed precision. */
std::string fmt(double v, int precision = 1);

/** "12.3%" from a fraction. */
std::string pct(double frac, int precision = 1);

/** "mean [min, max]" summary of a Range; "n/a" for an empty sample
 *  (every contributing run degraded). */
std::string rangeStr(const Range &r, int precision = 1);

/** Mean of @p r; empty when no run contributed (all degraded). */
std::optional<double> meanOf(const Range &r);

/** fmt(*v) followed by @p unit, or "n/a" when @p v is empty. */
std::string fmt(const std::optional<double> &v, int precision = 1,
                const char *unit = "");

} // namespace dmdc

#endif // DMDC_SIM_CAMPAIGN_HH
