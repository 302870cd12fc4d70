/**
 * @file
 * Single-level set-associative cache timing model.
 */

#ifndef DMDC_MEM_CACHE_HH
#define DMDC_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace dmdc
{

/** Geometry and latency of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 2;
    unsigned lineBytes = 64;
    unsigned latency = 2;       ///< hit latency in cycles
};

/**
 * Write-back, write-allocate, true-LRU set-associative cache. Purely a
 * hit/miss tag model: no data storage (the simulator is timing-only).
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Access the line containing @p addr; allocates on miss.
     * @param write marks the line dirty on hit/fill
     * @return true on hit
     */
    bool access(Addr addr, bool write);

    /** Tag check without side effects. */
    bool probe(Addr addr) const;

    /**
     * Invalidate the line containing @p addr (coherence).
     * @return true if a valid line was present
     */
    bool invalidate(Addr addr);

    unsigned latency() const { return params_.latency; }
    unsigned lineBytes() const { return params_.lineBytes; }
    const CacheParams &params() const { return params_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }

    /** Register this cache's statistics under @p parent. */
    void regStats(StatGroup &parent);

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lru = 0;
    };

    unsigned setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    CacheParams params_;
    std::vector<Line> lines_;
    unsigned numSets_;
    unsigned lineShift_;   ///< log2(lineBytes)
    unsigned tagShift_;    ///< log2(lineBytes * numSets_)
    std::uint64_t lruClock_ = 0;

    Counter hits_;
    Counter misses_;
    Counter writebacks_;
    StatGroup stats_;
};

} // namespace dmdc

#endif // DMDC_MEM_CACHE_HH
