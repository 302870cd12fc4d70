/**
 * @file
 * DynInst — one in-flight dynamic instruction and all per-instruction
 * pipeline, memory and mechanism state.
 */

#ifndef DMDC_CORE_INST_HH
#define DMDC_CORE_INST_HH

#include <cstdint>

#include "branch/predictor.hh"
#include "common/types.hh"
#include "trace/microop.hh"

namespace dmdc
{

/** Progress of an instruction through the pipeline. */
enum class InstStage : std::uint8_t
{
    Fetched,      ///< in the fetch/decode queue
    Dispatched,   ///< in ROB (+IQ/LSQ), waiting for operands
    Issued,       ///< executing on a functional unit / memory
    Done,         ///< completed, waiting to commit
    Committed,
    Squashed,
};

struct DynInst;

/** One wakeup-list link: consumer @c inst, dispatched as @c seq. */
struct WaiterLink
{
    DynInst *inst = nullptr;
    SeqNum seq = invalidSeqNum;
};

/** An in-flight dynamic instruction. */
struct DynInst
{
    MicroOp op;
    SeqNum seq = invalidSeqNum;   ///< global age, never recycled
    std::uint64_t traceIndex = ~std::uint64_t{0};  ///< correct-path index
    bool wrongPath = false;

    InstStage stage = InstStage::Fetched;
    /**
     * Next event in this Issued instruction's CompletionWheel bucket;
     * next to `stage` so a drain touches one cache line.
     */
    DynInst *nextEvent = nullptr;
    Cycle fetchReadyCycle = 0;    ///< earliest dispatch cycle
    Cycle issueCycle = 0;
    Cycle doneCycle = 0;

    /**
     * Source operand producers; nullptr when the value was already
     * architectural at rename. The paired seq lets readiness checks
     * avoid dereferencing producers that have already committed (and
     * been freed): a producer with seq below the ROB head is done.
     */
    DynInst *src1Producer = nullptr;
    DynInst *src2Producer = nullptr;
    DynInst *src3Producer = nullptr;
    SeqNum src1ProducerSeq = invalidSeqNum;
    SeqNum src2ProducerSeq = invalidSeqNum;
    SeqNum src3ProducerSeq = invalidSeqNum;
    DynInst *renamePrev = nullptr;  ///< previous mapping of op.dst
    SeqNum renamePrevSeq = invalidSeqNum;
    bool inIssueQueue = false;
    std::uint8_t waitMask = 0;    ///< bit k: waiting on source k+1

    /**
     * Wakeup lists (core/issue_queue.hh). A consumer registers at
     * dispatch with every source producer that has not completed:
     * it sets its waitMask bit and nextWaiter[k] chains it into that
     * producer's list, whose head is the producer's `waiters`. A link
     * names only the consumer; the slot it stands for is the
     * consumer's newest pending source naming that producer.
     *
     * Lists are youngest-first. A squash (always a youngest suffix)
     * therefore finds each victim at the head of every list it is
     * still on, and the ROB's youngest-first squash walk unlinks it
     * there: a list only ever names live consumers. The wake
     * re-checks each link's (DynInst*, seq) and stage and panics on a
     * stale one; seqs are never recycled and pool slabs outlive the
     * pipeline, so that check is always a safe dereference.
     */
    WaiterLink waiters;
    WaiterLink nextWaiter[3];

    // ---- branch state ----
    BranchPrediction pred;
    bool mispredicted = false;

    // ---- memory state ----
    bool sqAddrReady = false;     ///< store address resolved
    bool sqDataReady = false;     ///< store data ready
    bool loadIssued = false;      ///< load has obtained its value
    Cycle memIssueCycle = 0;      ///< when the load accessed memory
    SeqNum forwardedFrom = invalidSeqNum; ///< store that forwarded data
    Cycle retryCycle = 0;         ///< when a rejected load retries

    // ---- mechanism state (YLA / DMDC) ----
    bool safeLoad = false;        ///< all older stores resolved at issue
    bool safeStore = false;       ///< YLA filtered the LQ check
    SeqNum capturedWindowEnd = invalidSeqNum; ///< YLA value at resolve

    // ---- ground truth (simulator-only ghost state) ----
    bool ghostViolation = false;  ///< true premature load
    SeqNum ghostViolatingStore = invalidSeqNum;

    bool isLoad() const { return op.isLoad(); }
    bool isStore() const { return op.isStore(); }
    bool isBranch() const { return op.isBranch(); }
    bool completed() const
    {
        return stage == InstStage::Done || stage == InstStage::Committed;
    }

    /** Producer of source operand @p slot (0..2 for src1..src3). */
    DynInst *
    srcProducer(unsigned slot) const
    {
        return slot == 0 ? src1Producer
            : slot == 1  ? src2Producer
                         : src3Producer;
    }

    /**
     * The source slot that @p producer's list link to this consumer
     * stands for: the newest pending source naming @p producer
     * (dispatch registers src1, src2, src3 in that order). Returns 3
     * when no pending source names it.
     */
    unsigned
    waitSlot(const DynInst *producer) const
    {
        for (unsigned slot = 3; slot-- > 0;) {
            if ((waitMask & (1u << slot)) && srcProducer(slot) == producer)
                return slot;
        }
        return 3;
    }

    /**
     * Still waiting on an operand that gates issue. Store data (src3)
     * does not gate a store's address generation.
     */
    bool
    issueBlocked() const
    {
        return waitMask & (isStore() ? 0x3u : 0x7u);
    }
};

} // namespace dmdc

#endif // DMDC_CORE_INST_HH
