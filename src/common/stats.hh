/**
 * @file
 * Lightweight statistics infrastructure.
 *
 * Statistics are plain counters/averages registered with a StatGroup
 * so whole subsystems can be dumped or reset uniformly. This mirrors the
 * role of SimpleScalar's stats package at a much smaller scale.
 *
 * Thread-safety contract: there is deliberately NO global registry.
 * Every stat object and StatGroup is owned by exactly one Simulator's
 * component tree, so concurrent simulations under the campaign engine
 * never share a counter and need no locks on the simulation hot path.
 * Do not register one stat object with groups of two simulators.
 */

#ifndef DMDC_COMMON_STATS_HH
#define DMDC_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace dmdc
{

/** A named 64-bit event counter. */
class Counter
{
  public:
    Counter() = default;

    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    void operator+=(std::uint64_t n) { value_ += n; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Accumulates samples; reports count / sum / mean / min / max. */
class Average
{
  public:
    void sample(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    void reset();

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A registry of named statistics. Subsystems register their stats at
 * construction; the simulator dumps/resets them through the group.
 * Pointers must outlive the group.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "");

    void regCounter(const std::string &name, Counter *c,
                    const std::string &desc = "");
    void regAverage(const std::string &name, Average *a,
                    const std::string &desc = "");
    void addChild(StatGroup *child);

    /** Zero every registered statistic (recursively). */
    void resetAll();

    /** Human-readable dump, one stat per line, recursively. */
    void dump(std::ostream &os, const std::string &indent = "") const;

    const std::string &name() const { return name_; }

  private:
    struct Entry
    {
        std::string desc;
        Counter *counter = nullptr;
        Average *average = nullptr;
    };

    std::string name_;
    std::map<std::string, Entry> entries_;
    std::vector<StatGroup *> children_;
};

} // namespace dmdc

#endif // DMDC_COMMON_STATS_HH
