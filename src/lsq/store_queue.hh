/**
 * @file
 * Age-ordered store queue with forwarding, load rejection and
 * partial-match handling, following the POWER4-style semantics the
 * paper assumes: a store whose address is resolved but whose data is
 * not ready rejects consumer loads instead of forwarding.
 */

#ifndef DMDC_LSQ_STORE_QUEUE_HH
#define DMDC_LSQ_STORE_QUEUE_HH

#include <deque>

#include "core/inst.hh"

namespace dmdc
{

/** Outcome of a load's associative SQ check. */
enum class SqCheck : std::uint8_t
{
    NoMatch,    ///< no older matching store; go to the cache
    Forward,    ///< youngest matching older store forwards its data
    Reject,     ///< match without data (or partial match): retry later
};

/** Result details of a load's SQ check. */
struct SqCheckResult
{
    SqCheck outcome = SqCheck::NoMatch;
    DynInst *producer = nullptr;    ///< forwarding store (Forward only)
    bool sawUnresolvedOlder = false; ///< load issues speculatively
};

/** The store queue. */
class StoreQueue
{
  public:
    explicit StoreQueue(unsigned capacity);

    bool full() const { return entries_.size() >= capacity_; }
    std::size_t size() const { return entries_.size(); }
    unsigned capacity() const { return capacity_; }

    /** Allocate at dispatch, program order. */
    void allocate(DynInst *store);

    /** Record the resolved address (store "resolution"). */
    void setAddress(DynInst *store);

    /**
     * Associative check for a load at @p addr/@p size with age
     * @p load_seq. Scans older stores youngest-first.
     */
    SqCheckResult checkLoad(SeqNum load_seq, Addr addr,
                            unsigned size) const;

    /**
     * Safe-load detection (Fig. 1b logic): true iff every store older
     * than @p load_seq has a resolved address. O(1): the queue tracks
     * its unresolved-store count and the oldest unresolved age
     * incrementally.
     */
    bool
    allOlderResolved(SeqNum load_seq) const
    {
        return unresolved_ == 0 || oldestUnresolvedSeq_ >= load_seq;
    }

    /** Number of address-unresolved stores in flight. */
    unsigned unresolvedCount() const { return unresolved_; }

    /**
     * Age of the oldest address-unresolved store, or invalidSeqNum
     * when every in-flight store is resolved.
     */
    SeqNum oldestUnresolvedSeq() const { return oldestUnresolvedSeq_; }

    /**
     * Age of the oldest in-flight store, or invalidSeqNum when empty.
     * Loads older than this can skip the SQ search entirely (the
     * paper's Sec. 3 "filtering for stores").
     */
    SeqNum oldestStoreSeq() const;

    /** Remove the head store at commit (must be the oldest). */
    void releaseHead(DynInst *store);

    /** Remove all stores with seq >= @p from_seq. */
    void squashFrom(SeqNum from_seq);

  private:
    /** Re-derive oldestUnresolvedSeq_ after the oldest one resolved. */
    void recomputeOldestUnresolved();

    std::deque<DynInst *> entries_;
    unsigned capacity_;
    /**
     * Incrementally maintained: how many entries have !sqAddrReady,
     * and the minimum seq among them. Gives O(1) allOlderResolved()
     * and lets checkLoad() skip its unresolved bookkeeping when the
     * queue is fully resolved.
     */
    unsigned unresolved_ = 0;
    SeqNum oldestUnresolvedSeq_ = invalidSeqNum;
};

} // namespace dmdc

#endif // DMDC_LSQ_STORE_QUEUE_HH
