/**
 * @file
 * Campaign helper implementation.
 */

#include "sim/campaign.hh"

#include <atomic>
#include <cstdio>

#include "common/logging.hh"
#include "sim/campaign_runner.hh"
#include "sim/cli_options.hh"
#include "trace/spec_suite.hh"

namespace dmdc
{

namespace
{

/** Degraded in-shard runs across the process lifetime. */
std::atomic<std::size_t> g_degraded{0};

/** spec_suite group of @p name; tolerant of unknown names (a run may
 *  have failed precisely because its benchmark doesn't exist). */
bool
isFpBenchmark(const std::string &name)
{
    for (const std::string &fp : specFpNames()) {
        if (fp == name)
            return true;
    }
    return false;
}

} // namespace

CampaignResult
runCampaignChecked(const std::vector<SimOptions> &runs, bool verbose)
{
    CampaignResult cr =
        CampaignRunner::global().runChecked(runs, verbose);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunOutcome &oc = cr.outcomes[i];
        if (oc.ok())
            continue;
        if (oc.inShard())
            g_degraded.fetch_add(1, std::memory_order_relaxed);
        // Give the degraded slot its identity so tables can still
        // label the row; valid=false keeps it out of aggregates.
        SimResult &r = cr.results[i];
        r.benchmark = runs[i].benchmark;
        r.scheme = runs[i].scheme;
        r.configLevel = runs[i].configLevel;
        r.fp = isFpBenchmark(runs[i].benchmark);
        r.valid = false;
    }
    return cr;
}

std::size_t
harnessDegradedRuns()
{
    return g_degraded.load(std::memory_order_relaxed);
}

int
harnessExitCode()
{
    return harnessDegradedRuns() ? kExitDegraded : kExitOk;
}

std::vector<SimResult>
runSuite(const SimOptions &base, const std::vector<std::string> &names,
         bool verbose)
{
    std::vector<SimOptions> runs;
    runs.reserve(names.size());
    for (const std::string &name : names) {
        SimOptions opt = base;
        opt.benchmark = name;
        runs.push_back(std::move(opt));
    }
    return std::move(runCampaignChecked(runs, verbose).results);
}

Range
slowdownRange(const std::vector<SimResult> &baseline,
              const std::vector<SimResult> &test, bool fp_group)
{
    std::vector<double> v;
    v.reserve(baseline.size());
    for (const SimResult &b : baseline) {
        if (!b.valid || b.fp != fp_group)
            continue;
        const SimResult *t = findValidResult(test, b.benchmark);
        if (!t)
            continue; // degraded pair: drop from the aggregate
        // Compare cycles per instruction; runs commit the same
        // instruction budget.
        const double base_cpi = static_cast<double>(b.cycles) /
            static_cast<double>(b.instructions);
        const double test_cpi = static_cast<double>(t->cycles) /
            static_cast<double>(t->instructions);
        v.push_back((test_cpi - base_cpi) / base_cpi * 100.0);
    }
    return makeRange(v);
}

void
printBanner(const std::string &title, const std::string &paper_ref)
{
    std::printf("\n");
    std::printf("==========================================================="
                "=====================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("==========================================================="
                "=====================\n");
}

std::string
fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
pct(double frac, int precision)
{
    return fmt(frac * 100.0, precision) + "%";
}

std::string
rangeStr(const Range &r, int precision)
{
    if (r.n == 0)
        return "n/a";
    return fmt(r.mean, precision) + " [" + fmt(r.min, precision) +
        ", " + fmt(r.max, precision) + "]";
}

std::string
cell(const SimResult &r, double v, int precision)
{
    return r.valid ? fmt(v, precision) : "n/a";
}

} // namespace dmdc
