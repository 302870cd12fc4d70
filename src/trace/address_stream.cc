/**
 * @file
 * Address pattern generator implementations.
 */

#include "trace/address_stream.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace dmdc
{

StridedStream::StridedStream(Addr base, Addr size, Addr stride)
    : base_(base), size_(size), stride_(stride)
{
    if (!isPowerOf2(size))
        fatal("StridedStream region size must be a power of two");
    if (stride == 0 || stride >= size)
        fatal("StridedStream stride must be in (0, size)");
}

Addr
StridedStream::next()
{
    const Addr a = base_ + offset_;
    offset_ = (offset_ + stride_) & (size_ - 1);
    return a;
}

void
StridedStream::restart(Rng &rng)
{
    offset_ = rng.range(size_ / stride_) * stride_;
}

PointerChaseStream::PointerChaseStream(Addr base, Addr size,
                                       std::uint64_t seed)
    : base_(base), sizeMask_(size / 8 - 1), seed_(seed), current_(0)
{
    if (!isPowerOf2(size) || size < 64)
        fatal("PointerChaseStream region size must be a power of two "
              ">= 64");
    // Affine full-cycle permutation over the node index space: the
    // multiplier must be odd. A hash-walk would collapse into a short
    // rho-cycle (~sqrt(nodes)), destroying the big working set.
    mult_ = (mixHash(seed) | 1) & sizeMask_;
    if (mult_ < 3)
        mult_ = 3;
    inc_ = (mixHash(seed ^ 0x1234567ull) | 1) & sizeMask_;
}

Addr
PointerChaseStream::next()
{
    // 8-byte "nodes", like real pointer fields.
    current_ = (current_ * mult_ + inc_) & sizeMask_;
    return base_ + current_ * 8;
}

HotRegion::HotRegion(Addr base, Addr size) : base_(base), size_(size)
{
    if (!isPowerOf2(size))
        fatal("HotRegion size must be a power of two");
}

Addr
HotRegion::next(Rng &rng)
{
    return base_ + (rng.range(size_) & ~Addr{3});
}

RecentStoreBuffer::RecentStoreBuffer(unsigned capacity)
    : ring_(capacity)
{
    if (capacity == 0)
        fatal("RecentStoreBuffer capacity must be non-zero");
}

void
RecentStoreBuffer::push(Addr a, unsigned size)
{
    ring_[head_] = Entry{a, size};
    if (++head_ == ring_.size())
        head_ = 0;
    if (count_ < ring_.size())
        ++count_;
}

Addr
RecentStoreBuffer::sample(Rng &rng, unsigned &size_out,
                          const GeometricTable &back_dist) const
{
    if (count_ == 0) {
        size_out = 8;
        return invalidAddr;
    }
    // Geometric bias toward the most recent entry.
    unsigned back = back_dist.sample(rng);
    if (back > count_)
        back = count_;
    unsigned idx = head_ - back;
    if (head_ < back)
        idx += static_cast<unsigned>(ring_.size());
    size_out = ring_[idx].size;
    return ring_[idx].addr;
}

} // namespace dmdc
