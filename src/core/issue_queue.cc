/**
 * @file
 * Issue queue and wakeup-list implementation.
 */

#include "core/issue_queue.hh"

#include <algorithm>

namespace dmdc
{

IssueQueue::IssueQueue(unsigned capacity) : capacity_(capacity)
{
    if (capacity == 0)
        fatal("issue queue capacity must be non-zero");
    ready_.reserve(capacity);
}

void
IssueQueue::insert(DynInst *inst)
{
    if (full())
        panic("issue queue insert on full queue");
    ++occupancy_;
    inst->inIssueQueue = true;
}

void
IssueQueue::markReady(DynInst *inst)
{
    if (ready_.size() >= occupancy_)
        panic("issue queue ready set exceeds its occupancy");
    // Dispatch-time entries are the youngest; wakeups land anywhere.
    if (ready_.empty() || ready_.back()->seq < inst->seq) {
        ready_.push_back(inst);
        return;
    }
    const auto pos = std::lower_bound(
        ready_.begin(), ready_.end(), inst->seq,
        [](const DynInst *a, SeqNum seq) { return a->seq < seq; });
    ready_.insert(pos, inst);
}

void
IssueQueue::removeIssued(std::size_t scanned)
{
    const auto end = ready_.begin() + static_cast<std::ptrdiff_t>(scanned);
    const auto kept = std::remove_if(
        ready_.begin(), end, [this](DynInst *inst) {
            if (inst->stage != InstStage::Issued)
                return false;
            inst->inIssueQueue = false;
            --occupancy_;
            return true;
        });
    ready_.erase(kept, end);
}

void
IssueQueue::squash(DynInst *inst)
{
    if (!ready_.empty() && ready_.back() == inst)
        ready_.pop_back();
    --occupancy_;
    inst->inIssueQueue = false;
}

void
addWaiter(DynInst *producer, DynInst *consumer, unsigned slot)
{
    consumer->nextWaiter[slot] = producer->waiters;
    producer->waiters = WaiterLink{consumer, consumer->seq};
    consumer->waitMask |= static_cast<std::uint8_t>(1u << slot);
}

void
dropWaiters(DynInst *consumer)
{
    // Registration went src1, src2, src3; unlink in reverse so this
    // consumer's newest link is always its producer's list head.
    for (unsigned slot = 3; slot-- > 0;) {
        if (!(consumer->waitMask & (1u << slot)))
            continue;
        DynInst *producer = consumer->srcProducer(slot);
        const WaiterLink &head = producer->waiters;
        if (head.inst != consumer || head.seq != consumer->seq)
            panic("squashed consumer (seq %llu) is not its producer's "
                  "youngest waiter",
                  static_cast<unsigned long long>(consumer->seq));
        producer->waiters = consumer->nextWaiter[slot];
    }
    consumer->waitMask = 0;
}

} // namespace dmdc
