/**
 * @file
 * Metric catalogue, statistics and span arithmetic.
 */

#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench
{

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"inst_per_s", "inst/s", Better::Higher},
        {"campaign_s", "s", Better::Lower},
        {"setup_s", "s", Better::Lower},
        {"peak_rss_mb", "MB", Better::Lower},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        // src/trace, through the timing Workload decorator
        {"trace.build_ms", "ms", Better::Lower},
        {"trace.op_calls_per_kinst", "count/kinst", Better::Lower},
        {"trace.op_ns_per_kinst", "ns/kinst", Better::Lower},
        {"trace.wrongpath_calls_per_kinst", "count/kinst", Better::Lower},
        {"trace.wrongpath_ns_per_kinst", "ns/kinst", Better::Lower},
        // src/core
        {"core.build_ms", "ms", Better::Lower},
        {"core.tick_calls_per_kinst", "count/kinst", Better::Lower},
        {"core.tick_self_ns_per_kinst", "ns/kinst", Better::Lower},
        {"core.empty_tick_frac", "frac", Better::Lower},
        {"core.skip_cycle_frac", "frac", Better::Higher},
        {"core.skip_ns_per_kinst", "ns/kinst", Better::Lower},
        {"core.ipc", "inst/cycle", Better::Higher},
        {"core.dispatch_per_commit", "ratio", Better::Lower},
        {"core.issue_per_commit", "ratio", Better::Lower},
        // src/branch, src/mem
        {"branch.mispredicts_per_kinst", "count/kinst", Better::Lower},
        {"mem.l1d_miss_rate", "frac", Better::Lower},
        {"mem.l2_miss_rate", "frac", Better::Lower},
        // src/lsq + src/lsq/policy
        {"lsq.lq_searches_per_kinst", "count/kinst", Better::Lower},
        {"lsq.lq_filtered_frac", "frac", Better::Higher},
        {"lsq.sq_searches_per_kinst", "count/kinst", Better::Lower},
        {"lsq.load_rejections_per_kinst", "count/kinst", Better::Lower},
        {"lsq.replays_per_minst", "count/Minst", Better::Lower},
        // src/energy
        {"energy.compute_us", "us", Better::Lower},
        // src/sim: simulator, scheduler, campaign, cache store
        {"sim.build_ms", "ms", Better::Lower},
        {"sim.run_ms_p50", "ms", Better::Lower},
        {"sim.run_ms_p90", "ms", Better::Lower},
        {"sched.busy_frac", "frac", Better::Higher},
        {"sched.tail_ms", "ms", Better::Lower},
        {"campaign.simulated", "count", Better::Lower},
        {"campaign.disk_hits", "count", Better::Higher},
        {"campaign.retried", "count", Better::Lower},
        {"cache.store_us_per_run", "us", Better::Lower},
        {"cache.open_ms", "ms", Better::Lower},
        {"cache.load_us_per_run", "us", Better::Lower},
        {"campaign.decode_us_per_run", "us", Better::Lower},
        // the benchmark itself
        {"bench.trace_overhead_frac", "frac", Better::Lower},
    };
    return specs;
}

const char *
betterName(Better better)
{
    return better == Better::Higher ? "higher" : "lower";
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
        static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0 ||
            static_cast<std::size_t>(s.parent) >= spans.size())
            continue;
        const Span &p = spans[static_cast<std::size_t>(s.parent)];
        const std::int64_t lo = std::max(s.startNs, p.startNs);
        const std::int64_t hi = std::min(s.endNs, p.endNs);
        if (hi > lo)
            children[static_cast<std::size_t>(s.parent)].emplace_back(lo,
                                                                      hi);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (const auto &[lo, hi] : iv) {
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = spans[i].endNs - spans[i].startNs - covered;
    }
    return self;
}

std::vector<std::string>
MetricSet::missing(const std::vector<MetricSpec> &catalogue) const
{
    std::vector<std::string> out;
    for (const MetricSpec &m : catalogue) {
        auto it = values_.find(m.name);
        if (it == values_.end() || !std::isfinite(it->second))
            out.push_back(m.name);
    }
    return out;
}

std::string
MetricSet::json(const std::vector<MetricSpec> &catalogue) const
{
    std::string out = "{";
    char buf[64];
    for (const MetricSpec &m : catalogue) {
        auto it = values_.find(m.name);
        if (it == values_.end())
            continue;
        if (out.size() > 1)
            out += ", ";
        std::snprintf(buf, sizeof(buf), "%.17g", it->second);
        out += "\"" + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
}

std::string
MetricSet::table(const std::vector<MetricSpec> &catalogue) const
{
    std::string out;
    char buf[160];
    for (const MetricSpec &m : catalogue) {
        auto it = values_.find(m.name);
        if (it == values_.end())
            continue;
        std::snprintf(buf, sizeof(buf), "  %-34s %14.6g %-12s (%s is "
                      "better)\n",
                      m.name.c_str(), it->second, m.unit.c_str(),
                      betterName(m.better));
        out += buf;
    }
    return out;
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::string &metrics_json)
{
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"metrics\": " + metrics_json + "}";
}

} // namespace perfbench
