/**
 * @file
 * Cache model implementation.
 */

#include "mem/cache.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace dmdc
{

Cache::Cache(const CacheParams &params)
    : params_(params), stats_(params.name)
{
    if (params_.assoc == 0 || params_.lineBytes == 0 ||
        !isPowerOf2(params_.lineBytes)) {
        fatal("cache '%s': invalid geometry", params_.name.c_str());
    }
    const std::uint64_t num_lines =
        params_.sizeBytes / params_.lineBytes;
    if (num_lines == 0 || num_lines % params_.assoc != 0)
        fatal("cache '%s': size/assoc mismatch", params_.name.c_str());
    numSets_ = static_cast<unsigned>(num_lines / params_.assoc);
    if (!isPowerOf2(numSets_))
        fatal("cache '%s': set count must be a power of two",
              params_.name.c_str());
    lineShift_ = floorLog2(params_.lineBytes);
    tagShift_ = lineShift_ + floorLog2(numSets_);
    lines_.resize(num_lines);

    stats_.regCounter("hits", &hits_);
    stats_.regCounter("misses", &misses_);
    stats_.regCounter("writebacks", &writebacks_, "dirty evictions");
}

void
Cache::regStats(StatGroup &parent)
{
    parent.addChild(&stats_);
}

unsigned
Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>((addr >> lineShift_) & (numSets_ - 1));
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> tagShift_;
}

bool
Cache::access(Addr addr, bool write)
{
    const unsigned base = setIndex(addr) * params_.assoc;
    const Addr tag = tagOf(addr);

    Line *victim = &lines_[base];
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &line = lines_[base + w];
        if (line.valid && line.tag == tag) {
            line.lru = ++lruClock_;
            line.dirty = line.dirty || write;
            ++hits_;
            return true;
        }
        if (!victim->valid)
            continue;
        if (!line.valid || line.lru < victim->lru)
            victim = &line;
    }

    ++misses_;
    if (victim->valid && victim->dirty)
        ++writebacks_;
    victim->valid = true;
    victim->dirty = write;
    victim->tag = tag;
    victim->lru = ++lruClock_;
    return false;
}

bool
Cache::probe(Addr addr) const
{
    const unsigned base = setIndex(addr) * params_.assoc;
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const Line &line = lines_[base + w];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

bool
Cache::invalidate(Addr addr)
{
    const unsigned base = setIndex(addr) * params_.assoc;
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &line = lines_[base + w];
        if (line.valid && line.tag == tag) {
            line.valid = false;
            line.dirty = false;
            return true;
        }
    }
    return false;
}

} // namespace dmdc
