/**
 * @file
 * Store queue implementation.
 */

#include "lsq/store_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dmdc
{

StoreQueue::StoreQueue(unsigned capacity) : capacity_(capacity)
{
    if (capacity == 0)
        fatal("store queue capacity must be non-zero");
}

void
StoreQueue::allocate(DynInst *store)
{
    if (full())
        panic("SQ allocate on full queue");
    if (!entries_.empty() && store->seq <= entries_.back()->seq)
        panic("SQ allocation out of age order");
    entries_.push_back(store);
}

SqCheckResult
StoreQueue::checkLoad(SeqNum load_seq, Addr addr, unsigned size) const
{
    SqCheckResult result;
    // Youngest-first scan over stores older than the load; the first
    // address match decides the outcome (it is the youngest producer).
    // Entries are age-ordered, so binary-search past the stores
    // younger than the load instead of skipping them one by one — a
    // load near the SQ head no longer pays for the whole queue.
    const auto first_younger = std::lower_bound(
        entries_.begin(), entries_.end(), load_seq,
        [](const DynInst *store, SeqNum seq) {
            return store->seq < seq;
        });
    for (auto it = std::make_reverse_iterator(first_younger);
         it != entries_.rend(); ++it) {
        DynInst *store = *it;
        if (!store->sqAddrReady) {
            result.sawUnresolvedOlder = true;
            continue;
        }
        if (!rangesOverlap(addr, size, store->op.effAddr,
                           store->op.memSize)) {
            continue;
        }
        const bool contains = store->op.effAddr <= addr &&
            addr + size <= store->op.effAddr + store->op.memSize;
        if (contains && store->sqDataReady) {
            result.outcome = SqCheck::Forward;
            result.producer = store;
        } else {
            // Data not ready, or a partial overlap the forwarding
            // network cannot assemble: reject and retry.
            result.outcome = SqCheck::Reject;
            result.producer = store;
        }
        return result;
    }
    return result;
}

SeqNum
StoreQueue::oldestStoreSeq() const
{
    return entries_.empty() ? invalidSeqNum : entries_.front()->seq;
}

void
StoreQueue::releaseHead(DynInst *store)
{
    if (entries_.empty() || entries_.front() != store)
        panic("SQ release of a non-head store");
    entries_.pop_front();
}

void
StoreQueue::squashFrom(SeqNum from_seq)
{
    while (!entries_.empty() && entries_.back()->seq >= from_seq)
        entries_.pop_back();
}

} // namespace dmdc
