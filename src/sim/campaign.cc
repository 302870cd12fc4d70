/**
 * @file
 * Table helper implementation.
 */

#include "sim/campaign.hh"

#include <cstdio>

namespace dmdc
{

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

std::optional<double>
meanOf(const Range &r)
{
    return r.n ? std::optional<double>(r.mean) : std::nullopt;
}

std::string
fmt(const std::optional<double> &v, int precision, const char *unit)
{
    return v ? fmt(*v, precision) + unit : "n/a";
}

} // namespace dmdc
