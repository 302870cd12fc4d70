/**
 * @file
 * Counting bloom filter over in-flight issued load addresses, the
 * address-only filtering baseline of Fig. 3 (Sethumadhavan et al.,
 * "Scalable Hardware Memory Disambiguation", MICRO 2003), using their
 * H0 bit-slice-XOR hashing function.
 */

#ifndef DMDC_LSQ_BLOOM_HH
#define DMDC_LSQ_BLOOM_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace dmdc
{

/**
 * Counting bloom filter: loads increment their bucket at issue and
 * decrement it when they leave the machine (commit or squash); a store
 * whose bucket is zero provably has no in-flight issued load to a
 * matching address and can skip the LQ search.
 */
class CountingBloomFilter
{
  public:
    /** @param buckets number of counters (power of two). */
    explicit CountingBloomFilter(unsigned buckets);

    /** A load to @p addr issued. */
    void loadIssued(Addr addr);

    /** A previously-issued load to @p addr committed or squashed. */
    void loadRemoved(Addr addr);

    /**
     * Store-side filter check: true (search filtered out) iff no
     * in-flight issued load hashes to @p addr's bucket.
     */
    bool storeFiltered(Addr addr) const;

    unsigned numBuckets() const
    {
        return static_cast<unsigned>(counters_.size());
    }

  private:
    unsigned index(Addr addr) const;

    std::vector<std::uint16_t> counters_;
    unsigned indexBits_;
};

} // namespace dmdc

#endif // DMDC_LSQ_BLOOM_HH
