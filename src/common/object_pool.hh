/**
 * @file
 * Slab/freelist object pool and a fixed-capacity ring buffer — the
 * allocation-free building blocks of the simulator hot loop.
 *
 * ObjectPool hands out default-initialized objects from pre-allocated
 * slabs and recycles released ones LIFO, so the per-instruction
 * make_unique/delete churn of the seed implementation disappears from
 * fetch/retire. RingBuffer replaces std::deque in the fetch queue and
 * ROB: contiguous storage, no node allocation, O(1) push/pop at both
 * ends.
 *
 * Recycling safety: the pipeline already treats pointers to retired
 * instructions as dangling and guards every dereference with the
 * paired sequence number (see DynInst::src*ProducerSeq and
 * Pipeline::producerDone). A recycled slot is reused only for a
 * strictly younger instruction, so a guard that passes proves the
 * pointee is the live original — pooling is exactly as safe as the
 * seed's free-after-retire discipline.
 */

#ifndef DMDC_COMMON_OBJECT_POOL_HH
#define DMDC_COMMON_OBJECT_POOL_HH

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace dmdc
{

/**
 * Slab allocator with a LIFO freelist. Objects are default-initialized
 * afresh on acquire, so callers never observe stale fields from a
 * previous life, provided every member of @p T has a default member
 * initializer (ObjectPoolTest.RecycledDynInstEqualsFresh holds DynInst
 * to that).
 *
 * @tparam T default-constructible, trivially destructible object type.
 */
template <typename T>
class ObjectPool
{
    static_assert(std::is_trivially_destructible_v<T>,
                  "recycling constructs over the old object");

  public:
    /**
     * @param slab_size objects allocated up front, and again each time
     *        the freelist runs dry
     */
    explicit ObjectPool(std::size_t slab_size)
        : slabSize_(slab_size ? slab_size : 1)
    {
        addSlab();
    }

    ObjectPool(const ObjectPool &) = delete;
    ObjectPool &operator=(const ObjectPool &) = delete;

    /** Objects currently handed out. */
    std::size_t liveCount() const { return total_ - free_.size(); }
    /** Objects allocated across all slabs. */
    std::size_t capacity() const { return total_; }

    /** Acquire a freshly default-initialized object. */
    T *
    acquire()
    {
        if (free_.empty())
            addSlab();
        T *obj = free_.back();
        free_.pop_back();
        // Default-initialization in place, not `*obj = T{}`: that
        // value-initializes a temporary and copies it, which GCC
        // lowers to a rep stos of the whole object plus fix-ups.
        return ::new (obj) T;
    }

    /** Return an object to the pool. It must come from this pool. */
    void
    release(T *obj)
    {
        free_.push_back(obj);
    }

  private:
    void
    addSlab()
    {
        slabs_.push_back(std::make_unique_for_overwrite<T[]>(slabSize_));
        T *base = slabs_.back().get();
        free_.reserve(free_.size() + slabSize_);
        // Pushed in reverse so the LIFO freelist hands out slab
        // objects in address order initially (cache-friendly).
        for (std::size_t i = slabSize_; i-- > 0;)
            free_.push_back(base + i);
        total_ += slabSize_;
    }

    std::vector<std::unique_ptr<T[]>> slabs_;
    std::vector<T *> free_;
    std::size_t slabSize_;
    std::size_t total_ = 0;
};

/**
 * Fixed-capacity circular queue. Indexing is oldest-first:
 * operator[](0) == front(). Push/pop at either end is O(1) with no
 * allocation after construction.
 */
template <typename T>
class RingBuffer
{
  public:
    explicit RingBuffer(std::size_t capacity) : buf_(capacity) {}

    bool empty() const { return size_ == 0; }
    bool full() const { return size_ >= buf_.size(); }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return buf_.size(); }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }
    T &back() { return buf_[wrap(size_ - 1)]; }
    const T &back() const { return buf_[wrap(size_ - 1)]; }

    /** @p i counts from the oldest element (0 == front). */
    T &operator[](std::size_t i) { return buf_[wrap(i)]; }
    const T &operator[](std::size_t i) const { return buf_[wrap(i)]; }

    void
    push_back(const T &v)
    {
        if (full())
            panic("ring buffer overflow (capacity %zu)", buf_.size());
        buf_[wrap(size_)] = v;
        ++size_;
    }

    void
    pop_front()
    {
        if (empty())
            panic("ring buffer pop_front on empty buffer");
        head_ = head_ + 1 == buf_.size() ? 0 : head_ + 1;
        --size_;
    }

    void
    pop_back()
    {
        if (empty())
            panic("ring buffer pop_back on empty buffer");
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        i += head_;
        return i >= buf_.size() ? i - buf_.size() : i;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace dmdc

#endif // DMDC_COMMON_OBJECT_POOL_HH
