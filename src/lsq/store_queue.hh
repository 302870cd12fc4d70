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
    void setAddress(DynInst *store) { store->sqAddrReady = true; }

    /**
     * Associative check for a load at @p addr/@p size with age
     * @p load_seq. Scans older stores youngest-first. The scan also
     * does safe-load detection (Fig. 1b): on NoMatch it has seen
     * every older store, so sawUnresolvedOlder is false iff all of
     * them have resolved addresses.
     */
    SqCheckResult checkLoad(SeqNum load_seq, Addr addr,
                            unsigned size) const;

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
    std::deque<DynInst *> entries_;
    unsigned capacity_;
};

} // namespace dmdc

#endif // DMDC_LSQ_STORE_QUEUE_HH
