/**
 * @file
 * Issue queue (scheduler window) and the producer -> consumer wakeup
 * lists that feed it. Select only ever walks instructions whose
 * operands are already available.
 */

#ifndef DMDC_CORE_ISSUE_QUEUE_HH
#define DMDC_CORE_ISSUE_QUEUE_HH

#include <vector>

#include "common/logging.hh"
#include "core/inst.hh"

namespace dmdc
{

/**
 * One issue queue (the paper's machine has separate INT and FP
 * queues). It counts its occupied entries and keeps the ready ones
 * (every issue-gating operand available) in age order; selection is
 * oldest-first among them, which the pipeline drives. Waiting entries
 * live only on their producers' wakeup lists.
 */
class IssueQueue
{
  public:
    explicit IssueQueue(unsigned capacity);

    bool full() const { return occupancy_ >= capacity_; }
    std::size_t size() const { return occupancy_; }
    unsigned capacity() const { return capacity_; }

    /** Occupy an entry at dispatch (program order). */
    void insert(DynInst *inst);

    /** @p inst's operands are available: enter the ready set. */
    void markReady(DynInst *inst);

    /** Ready entries, oldest first (the select order). */
    const std::vector<DynInst *> &ready() const { return ready_; }

    /**
     * Free the entries select issued (stage Issued) among the first
     * @p scanned ready entries.
     */
    void removeIssued(std::size_t scanned);

    /**
     * Free squashed @p inst's entry. Called from the ROB's
     * youngest-first squash walk, so a squashed ready entry is always
     * the ready set's youngest.
     */
    void squash(DynInst *inst);

  private:
    std::vector<DynInst *> ready_;
    unsigned occupancy_ = 0;
    unsigned capacity_;
};

/**
 * Register @p consumer's source @p slot (0..2) with @p producer, which
 * has not completed. Dispatch registers in program order, so each
 * list is youngest-first.
 */
void addWaiter(DynInst *producer, DynInst *consumer, unsigned slot);

/**
 * Unlink squashed @p consumer from the lists it still waits on. The
 * ROB squash walk calls this youngest-first, so the consumer heads
 * each of those lists.
 */
void dropWaiters(DynInst *consumer);

/**
 * Empty completed @p producer's wakeup list, calling
 * @p fn(consumer, slot) for each waiter after clearing its wait bit.
 */
template <typename Fn>
void
wakeWaiters(DynInst *producer, Fn &&fn)
{
    WaiterLink link = producer->waiters;
    producer->waiters = WaiterLink{};
    while (link.inst) {
        DynInst *consumer = link.inst;
        const unsigned slot = consumer->waitSlot(producer);
        if (consumer->seq != link.seq ||
            consumer->stage == InstStage::Squashed || slot == 3) {
            panic("wakeup list names a dead consumer (seq %llu)",
                  static_cast<unsigned long long>(link.seq));
        }
        link = consumer->nextWaiter[slot];
        consumer->waitMask &= static_cast<std::uint8_t>(~(1u << slot));
        fn(consumer, slot);
    }
}

} // namespace dmdc

#endif // DMDC_CORE_ISSUE_QUEUE_HH
