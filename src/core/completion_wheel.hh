/**
 * @file
 * Completion timing wheel: issued instructions indexed by the cycle in
 * which they complete.
 */

#ifndef DMDC_CORE_COMPLETION_WHEEL_HH
#define DMDC_CORE_COMPLETION_WHEEL_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "core/inst.hh"

namespace dmdc
{

/**
 * Issued instructions waiting for their completion cycle. Every
 * latency is known at issue and bounded by the core parameters, so
 * events are bucketed by cycle modulo a power-of-two size at least the
 * bound instead of sorted. Each bucket is a seq-ascending intrusive
 * list linked through DynInst::nextEvent (a cycle drains oldest
 * first, so completions happen in (cycle, seq) order), and a
 * bitmap of non-empty buckets serves the next-due search and the
 * squash purge. The links live in the pooled DynInsts, so steady state
 * allocates nothing.
 *
 * A squash removes a youngest seq suffix, which is a suffix of every
 * bucket; squashFrom() cuts it eagerly, so a bucket's bit is set
 * exactly when the bucket holds a live event and nextDue() is exact.
 */
class CompletionWheel
{
  public:
    /**
     * @p horizon bounds every event: schedule() requires
     * when - now < horizon. The wheel has bit_ceil(horizon) buckets,
     * and at least 64.
     */
    explicit CompletionWheel(Cycle horizon);

    std::size_t size() const { return buckets_.size(); }

    /**
     * Complete @p inst at cycle @p when. Panics unless
     * now < when < now + horizon: a wrapped event would complete a
     * whole wheel turn early.
     */
    void
    schedule(DynInst *inst, Cycle when, Cycle now)
    {
        if (when <= now || when - now >= horizon_) {
            panic("completion of seq %llu at cycle %llu is outside "
                  "(%llu, %llu)",
                  static_cast<unsigned long long>(inst->seq),
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(now),
                  static_cast<unsigned long long>(now + horizon_));
        }
        const std::size_t idx = when & mask_;
        Bucket &b = buckets_[idx];
        inst->nextEvent = nullptr;
        if (!b.tail) {
            b.head = b.tail = inst;
            occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
        } else if (b.tail->seq < inst->seq) {
            b.tail->nextEvent = inst;
            b.tail = inst;
        } else {
            insertSorted(b, inst);
        }
    }

    /**
     * Unlink and return the oldest instruction due at @p now, or
     * nullptr when none is left. Events squashed while a cycle drains
     * are already cut from its bucket.
     */
    DynInst *
    pop(Cycle now)
    {
        const std::size_t idx = now & mask_;
        Bucket &b = buckets_[idx];
        DynInst *inst = b.head;
        if (!inst)
            return nullptr;
        b.head = inst->nextEvent;
        if (!b.head) {
            b.tail = nullptr;
            occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
        }
        return inst;
    }

    /** Drop every event whose seq is at least @p from_seq. */
    void squashFrom(SeqNum from_seq);

    /**
     * The earliest cycle after @p now with an event, found across the
     * wrap; 0 when none is scheduled.
     */
    Cycle nextDue(Cycle now) const;

  private:
    struct Bucket
    {
        DynInst *head = nullptr;
        DynInst *tail = nullptr;
    };

    /** Out-of-order arrival: link @p inst in seq order. */
    static void insertSorted(Bucket &b, DynInst *inst);

    Cycle horizon_;
    Cycle mask_;
    std::vector<Bucket> buckets_;
    std::vector<std::uint64_t> occupied_;  ///< bit k: bucket k non-empty
};

} // namespace dmdc

#endif // DMDC_CORE_COMPLETION_WHEEL_HH
