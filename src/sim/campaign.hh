/**
 * @file
 * Campaign helpers: run a SimOptions template across the benchmark
 * suite and compare schemes, plus small table-formatting utilities
 * shared by the bench harnesses.
 */

#ifndef DMDC_SIM_CAMPAIGN_HH
#define DMDC_SIM_CAMPAIGN_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/campaign_runner.hh"
#include "sim/simulator.hh"

namespace dmdc
{

/**
 * Run @p base once per benchmark in @p benchmarks (the template's
 * .benchmark field is overwritten). Progress is reported via inform().
 * Runs execute on CampaignRunner::global() — parallel across
 * benchmarks and cached on disk — with results in suite order, element-wise
 * identical to a serial loop over runSimulation().
 *
 * Failure tolerance: a failed / timed-out / out-of-shard run yields
 * an *invalid* result slot (SimResult::valid == false, identity
 * fields filled in) instead of killing the process; the aggregation
 * helpers skip invalid slots and the harness exits with
 * harnessExitCode() so degradation is visible to scripts.
 */
std::vector<SimResult> runSuite(const SimOptions &base,
                                const std::vector<std::string> &names,
                                bool verbose = true);

/**
 * Run an explicit campaign on the global runner, marking degraded
 * result slots invalid and feeding the process-wide degradation
 * counter behind harnessExitCode(). The bench harnesses call this
 * instead of touching the runner directly.
 */
CampaignResult runCampaignChecked(const std::vector<SimOptions> &runs,
                                  bool verbose = false);

/**
 * In-shard runs that degraded (failed / timed out / skipped) across
 * every runSuite() / runCampaignChecked() call so far.
 */
std::size_t harnessDegradedRuns();

/**
 * kExitOk when every run so far succeeded, kExitDegraded otherwise.
 * Every bench main() returns this: a figure with "n/a" cells still
 * prints, but scripts can tell it was degraded.
 */
int harnessExitCode();

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

/** Print a bench banner. */
void printBanner(const std::string &title, const std::string &paper_ref);

/** "12.3" with fixed precision. */
std::string fmt(double v, int precision = 1);

/** "12.3%" from a fraction. */
std::string pct(double frac, int precision = 1);

/** "mean [min, max]" summary of a Range; "n/a" for an empty sample
 *  (every contributing run degraded). */
std::string rangeStr(const Range &r, int precision = 1);

/** Table cell for one result's metric: fmt(v) or "n/a" when the slot
 *  is invalid (degraded run). */
std::string cell(const SimResult &r, double v, int precision = 1);

} // namespace dmdc

#endif // DMDC_SIM_CAMPAIGN_HH
