/**
 * @file
 * Counting bloom filter implementation.
 */

#include "lsq/bloom.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace dmdc
{

CountingBloomFilter::CountingBloomFilter(unsigned buckets)
    : counters_(buckets, 0)
{
    if (!isPowerOf2(buckets))
        fatal("bloom filter bucket count must be a power of two");
    indexBits_ = floorLog2(buckets);
}

unsigned
CountingBloomFilter::index(Addr addr) const
{
    // H0: XOR of successive index-sized slices of the quad-word
    // address.
    return static_cast<unsigned>(
        foldXor(addr / quadWordBytes, indexBits_));
}

void
CountingBloomFilter::loadIssued(Addr addr)
{
    ++counters_[index(addr)];
}

void
CountingBloomFilter::loadRemoved(Addr addr)
{
    std::uint16_t &ctr = counters_[index(addr)];
    if (ctr == 0)
        panic("bloom filter underflow");
    --ctr;
}

bool
CountingBloomFilter::storeFiltered(Addr addr) const
{
    return counters_[index(addr)] == 0;
}

} // namespace dmdc
