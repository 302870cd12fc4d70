/**
 * @file
 * The benchmark's metric catalogue, the statistics it reports
 * (median, percentiles) and the span arithmetic of the traced mode.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Which direction of a metric is an improvement. */
enum class Better { Higher, Lower };

/** One named metric: printed with its unit, judged by its direction. */
struct MetricSpec
{
    std::string name;
    std::string unit;
    Better better;
};

/** Printed by untraced runs (`--trace 0`), in this order. */
const std::vector<MetricSpec> &endToEndMetrics();

/** Printed by traced runs (`--trace 1`), in this order. */
const std::vector<MetricSpec> &perLayerMetrics();

/** "higher" / "lower", as BENCHMARK.json spells it. */
const char *betterName(Better better);

/** Median of @p values (mean of the middle two for even sizes);
 *  0 for an empty set. */
double median(std::vector<double> values);

/**
 * The @p p-th percentile (0-100) of @p values by linear
 * interpolation between closest ranks (numpy's default): p=0 is the
 * minimum, p=100 the maximum, p=50 the median. 0 for an empty set.
 */
double percentile(std::vector<double> values, double p);

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seconds between two nowNs() readings. */
inline double
secondsBetween(std::int64_t start, std::int64_t end)
{
    return static_cast<double>(end - start) * 1e-9;
}

/**
 * One traced interval. @p parent indexes the enclosing span in the
 * same vector (-1 for a root); @p id groups the spans of one traced
 * run.
 */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
    std::uint64_t id = 0;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its direct children (overlapping children are
 * counted once; parts of a child outside the parent are ignored).
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

/**
 * Calls into one layer function that happen millions of times per
 * run (one span each would not fit in memory): each call is still
 * timed from entry to exit, but only its count and summed duration
 * are kept.
 */
struct CallClock
{
    std::uint64_t calls = 0;
    std::int64_t ns = 0;

    void
    add(std::int64_t start, std::int64_t end)
    {
        ++calls;
        ns += end - start;
    }
};

/** Named metric values of one run, checked against a catalogue. */
class MetricSet
{
  public:
    void set(const std::string &name, double value)
    {
        values_[name] = value;
    }

    /** Names in @p catalogue without a value here. */
    std::vector<std::string>
    missing(const std::vector<MetricSpec> &catalogue) const;

    /** The `"metrics"` JSON object: every catalogue entry, with its
     *  unit. Call only when missing() is empty. */
    std::string json(const std::vector<MetricSpec> &catalogue) const;

    /** One "name value unit (better is ...)" line per entry. */
    std::string table(const std::vector<MetricSpec> &catalogue) const;

  private:
    std::map<std::string, double> values_;
};

/** The last stdout line of a run: {correct, attempted, failed,
 *  metrics}. */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::string &metrics_json);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
