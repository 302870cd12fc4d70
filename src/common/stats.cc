/**
 * @file
 * Statistics infrastructure implementation.
 */

#include "common/stats.hh"

#include <algorithm>
#include <iomanip>

namespace dmdc
{

void
Average::sample(double v)
{
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
}

void
Average::reset()
{
    count_ = 0;
    sum_ = min_ = max_ = 0.0;
}

StatGroup::StatGroup(std::string name) : name_(std::move(name))
{
}

void
StatGroup::regCounter(const std::string &name, Counter *c,
                      const std::string &desc)
{
    entries_[name] = Entry{desc, c, nullptr};
}

void
StatGroup::regAverage(const std::string &name, Average *a,
                      const std::string &desc)
{
    entries_[name] = Entry{desc, nullptr, a};
}

void
StatGroup::addChild(StatGroup *child)
{
    children_.push_back(child);
}

void
StatGroup::resetAll()
{
    for (auto &[name, e] : entries_) {
        if (e.counter)
            e.counter->reset();
        if (e.average)
            e.average->reset();
    }
    for (auto *child : children_)
        child->resetAll();
}

void
StatGroup::dump(std::ostream &os, const std::string &indent) const
{
    if (!name_.empty())
        os << indent << "[" << name_ << "]\n";
    const std::string inner = indent + "  ";
    for (const auto &[name, e] : entries_) {
        os << inner << std::left << std::setw(32) << name << " ";
        if (e.counter) {
            os << e.counter->value();
        } else if (e.average) {
            os << "mean=" << e.average->mean()
               << " min=" << e.average->min()
               << " max=" << e.average->max()
               << " n=" << e.average->count();
        }
        if (!e.desc.empty())
            os << "   # " << e.desc;
        os << "\n";
    }
    for (const auto *child : children_)
        child->dump(os, inner);
}

} // namespace dmdc
