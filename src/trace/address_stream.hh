/**
 * @file
 * Data-address pattern generators for synthetic workloads.
 *
 * Three archetypes cover the access behaviour the mechanisms under
 * study are sensitive to: strided streaming (FP loop nests), pointer
 * chasing (INT heap traversal) and a small hot region (stack/globals).
 * A ring of recent store addresses lets the generator create true
 * store-to-load dependences through memory at a controlled rate.
 */

#ifndef DMDC_TRACE_ADDRESS_STREAM_HH
#define DMDC_TRACE_ADDRESS_STREAM_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"

namespace dmdc
{

/** Sequential walk through a region with a fixed stride. */
class StridedStream
{
  public:
    /**
     * @param base region base address
     * @param size region size in bytes (power of two)
     * @param stride byte distance between consecutive accesses
     */
    StridedStream(Addr base, Addr size, Addr stride);

    /** Next address in the stream, wrapping at the region end. */
    Addr next();

    /** Restart the walk at a (seeded) random offset. */
    void restart(Rng &rng);

  private:
    Addr base_;
    Addr size_;
    Addr stride_;
    Addr offset_ = 0;
};

/**
 * Pseudo-random permutation walk: each address determines the next via
 * a mixing hash, modeling linked-data-structure traversal. Successive
 * addresses have no spatial locality and the walk is serially dependent.
 */
class PointerChaseStream
{
  public:
    PointerChaseStream(Addr base, Addr size, std::uint64_t seed);

    /** Follow the "pointer" at the current node. */
    Addr next();

  private:
    Addr base_;
    Addr sizeMask_;   ///< node-index mask (size/8 - 1)
    std::uint64_t seed_;
    Addr current_;    ///< current node index
    Addr mult_ = 3;   ///< odd multiplier of the affine permutation
    Addr inc_ = 1;
};

/** Uniform random accesses within a small hot region. */
class HotRegion
{
  public:
    HotRegion(Addr base, Addr size);

    Addr next(Rng &rng);

  private:
    Addr base_;
    Addr size_;
};

/**
 * Ring buffer of the most recent store addresses; loads sample it to
 * create true memory dependences (and store-to-load forwarding work).
 */
class RecentStoreBuffer
{
  public:
    explicit RecentStoreBuffer(unsigned capacity = 32);

    void push(Addr a, unsigned size);

    bool empty() const { return count_ == 0; }

    /**
     * A recent store address, geometrically biased toward the newest
     * (short store-to-load distances dominate in real code).
     * @param back distance (in stores) from the newest entry
     */
    Addr sample(Rng &rng, unsigned &size_out,
                const GeometricTable &back) const;

  private:
    struct Entry { Addr addr; unsigned size; };
    std::vector<Entry> ring_;
    unsigned head_ = 0;
    unsigned count_ = 0;
};

} // namespace dmdc

#endif // DMDC_TRACE_ADDRESS_STREAM_HH
