/**
 * @file
 * Out-of-order pipeline implementation.
 */

#include "core/pipeline.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/trace_sink.hh"

namespace dmdc
{

namespace
{

/**
 * Interned-once trace identities for pipeline events. Replay instants
 * live on the coarse "kernel" category; the per-cycle fetch/issue/
 * commit phase spans get their own "kernel-phases" channel because
 * they emit several records per simulated cycle — enable them
 * explicitly (or via --trace=all) when that granularity is worth the
 * slowdown.
 */
struct PipelineTrace
{
    TraceCategory &cat = traceCategory("kernel");
    TraceCategory &phases = traceCategory("kernel-phases");
    std::uint16_t fetch = traceNameId("fetch");
    std::uint16_t issue = traceNameId("issue");
    std::uint16_t commit = traceNameId("commit");
    std::uint16_t complete = traceNameId("complete");
    std::uint16_t dmdcReplay = traceNameId("dmdc-replay");
    std::uint16_t baselineReplay = traceNameId("baseline-replay");
    std::uint16_t ageReplay = traceNameId("age-table-replay");
};

PipelineTrace &
pipelineTrace()
{
    static PipelineTrace ids;
    return ids;
}

/**
 * Bound on how far ahead of issue a completion lands: a load completes
 * 1 + its memory latency later (at most an L1D and L2 miss to memory),
 * everything else after its FU latency.
 */
Cycle
completionHorizon(const CoreParams &p)
{
    const FuPoolParams &fu = p.fu;
    const Cycle load = 1 + p.mem.l1d.latency + p.mem.l2.latency +
        p.mem.memLatency;
    return 1 + std::max<Cycle>({load, fu.intAluLat, fu.intMultLat,
                                fu.intDivLat, fu.fpAddLat, fu.fpMultLat,
                                fu.fpDivLat});
}

} // namespace

Pipeline::Pipeline(const CoreParams &params, Workload &workload)
    : params_(params), workload_(workload),
      // Live instructions are bounded by ROB + fetch queue occupancy;
      // one slab of that size makes the pool allocation-free at
      // steady state.
      pool_(params.robSize + params.fetchQueueSize),
      mem_(params.mem),
      predictor_(params.bp),
      fetch_(params.fetchParams(), workload, predictor_, mem_, pool_),
      rob_(params.robSize, pool_),
      rename_(params.intRegs, params.fpRegs),
      intIq_(params.intIqSize),
      fpIq_(params.fpIqSize),
      fuPool_(params.fu),
      lsq_(params.lsq),
      fetchQueue_(params.fetchQueueSize),
      completions_(completionHorizon(params)),
      root_("sim")
{
    regStats(root_);
}

Pipeline::~Pipeline() = default;

void
Pipeline::regStats(StatGroup &parent)
{
    pipeStats_.regCounter("cycles", &stats_.cycles);
    pipeStats_.regCounter("committed_insts", &stats_.committedInsts);
    pipeStats_.regCounter("committed_loads", &stats_.committedLoads);
    pipeStats_.regCounter("committed_stores", &stats_.committedStores);
    pipeStats_.regCounter("committed_branches",
                          &stats_.committedBranches);
    pipeStats_.regCounter("dispatched", &stats_.dispatched);
    pipeStats_.regCounter("issued", &stats_.issued);
    pipeStats_.regCounter("branch_mispredicts",
                          &stats_.branchMispredicts);
    pipeStats_.regCounter("mispred_cond", &stats_.mispredCond);
    pipeStats_.regCounter("mispred_btb_miss", &stats_.mispredBtbMiss);
    pipeStats_.regCounter("mispred_target", &stats_.mispredTarget);
    pipeStats_.regCounter("mispred_return", &stats_.mispredReturn);
    pipeStats_.regCounter("baseline_replays", &stats_.baselineReplays);
    pipeStats_.regCounter("dmdc_replays", &stats_.dmdcReplays);
    pipeStats_.regCounter("age_table_replays",
                          &stats_.ageTableReplays);
    pipeStats_.regCounter("load_rejections", &stats_.loadRejections);
    pipeStats_.regCounter("load_forwards", &stats_.loadForwards);
    pipeStats_.regCounter("speculative_loads",
                          &stats_.speculativeLoads);
    parent.addChild(&pipeStats_);

    fetch_.regStats(parent);
    mem_.regStats(parent);
    regfile_.regStats(parent);
    lsq_.regStats(parent);
}

void
Pipeline::resetStats()
{
    root_.resetAll();
}

bool
Pipeline::producerDone(const DynInst *producer, SeqNum pseq) const
{
    if (!producer)
        return true;
    const DynInst *head = rob_.head();
    if (!head || pseq < head->seq)
        return true;   // producer already committed
    return producer->completed();
}

void
Pipeline::subscribe(DynInst *inst)
{
    if (!producerDone(inst->src1Producer, inst->src1ProducerSeq))
        addWaiter(inst->src1Producer, inst, 0);
    if (!producerDone(inst->src2Producer, inst->src2ProducerSeq))
        addWaiter(inst->src2Producer, inst, 1);
    if (!producerDone(inst->src3Producer, inst->src3ProducerSeq))
        addWaiter(inst->src3Producer, inst, 2);
    // A store whose data (src3) is already available needs no wake.
    if (inst->isStore() && !(inst->waitMask & 0x4u))
        lsq_.storeDataReady(inst);
    if (!inst->issueBlocked())
        queueFor(inst).markReady(inst);
}

unsigned
Pipeline::tick()
{
    ++now_;
    ++stats_.cycles;
    dcachePortsUsed_ = 0;
    fuPool_.tick(now_);

    // Per-cycle phase spans cost two clock reads per stage; a single
    // relaxed load guards the whole block when the channel is off.
    PipelineTrace &pt = pipelineTrace();
    const bool trace_phases = pt.phases.on();
    const auto timed = [&](std::uint16_t name, auto &&stage) {
        if (!trace_phases)
            return stage();
        TraceSpan span(pt.phases, name);
        return stage();
    };

    unsigned progress = 0;
    progress += timed(pt.complete, [&] { return doCompletions(); });
    progress += timed(pt.commit, [&] { return doCommit(); });
    progress += timed(pt.issue, [&] { return doIssue(); });
    if (pendingReplay_ && pendingAgeReplay_) {
        // Keep whichever squash reaches further back; the other's
        // range is contained in it.
        if (pendingReplay_->seq <= pendingAgeReplay_->seq)
            pendingAgeReplay_ = nullptr;
        else
            pendingReplay_ = nullptr;
    }
    if (pendingReplay_) {
        DynInst *victim = pendingReplay_;
        pendingReplay_ = nullptr;
        replayFrom(victim);
        ++progress;
    }
    if (pendingAgeReplay_) {
        DynInst *store = pendingAgeReplay_;
        pendingAgeReplay_ = nullptr;
        ++stats_.ageTableReplays;
        traceInstantArg(pt.cat, pt.ageReplay, store->seq);
        const bool wrong_path = store->wrongPath;
        const std::uint64_t trace_index = store->traceIndex;
        const Addr pc = store->op.pc;
        squashFrom(store->seq + 1);
        if (wrong_path)
            fetch_.redirectWrongPath(pc + 4,
                                     now_ + params_.redirectPenalty);
        else
            fetch_.redirectToTrace(trace_index + 1,
                                   now_ + params_.redirectPenalty);
        ++progress;
    }
    progress += timed(pt.fetch, [&] {
        return doDispatch() + doFetch();
    });
    lsq_.tick();
    return progress;
}

Cycle
Pipeline::nextEventCycle() const
{
    Cycle wake = 0;
    const auto consider = [&](Cycle c) {
        if (c > now_ && (wake == 0 || c < wake))
            wake = c;
    };
    consider(completions_.nextDue(now_));
    if (!fetchQueue_.empty())
        consider(fetchQueue_.front()->fetchReadyCycle);
    consider(fetch_.stallUntil());
    for (const DynInst *load : retryLoads_)
        consider(load->retryCycle);
    consider(fuPool_.intDivBusyUntil());
    consider(fuPool_.fpDivBusyUntil());
    return wake;
}

void
Pipeline::skipIdleCycles(Cycle n)
{
    if (n == 0)
        return;
    now_ += n;
    stats_.cycles += n;
    // An empty tick has exactly two conditional per-cycle side
    // effects beyond the counters above. First: when the fetch queue
    // has space, fetch must have been stalled on an I-cache miss
    // (otherwise it would have made progress), and each skipped cycle
    // would have counted an icache_stall_cycle. The skip never
    // crosses stallUntil_, so the condition holds for every skipped
    // cycle.
    if (fetchQueue_.size() < params_.fetchQueueSize)
        fetch_.noteIdleStallCycles(n);
    // Second: the dependence policy's per-cycle bookkeeping (DMDC
    // checking-mode cycle counting).
    lsq_.idleTicks(n);
}

// --------------------------------------------------------------------
// Fetch and dispatch
// --------------------------------------------------------------------

unsigned
Pipeline::doFetch()
{
    if (fetchQueue_.size() >= params_.fetchQueueSize)
        return 0;
    // An unstalled fetch with queue space always makes progress: it
    // either produces instructions or performs the I-cache access
    // that starts a new stall. A stalled fetch only counts its stall
    // cycle (reproduced by skipIdleCycles).
    const bool was_stalled = fetch_.stalled(now_);
    fetch_.tick(now_, fetchQueue_,
                params_.fetchQueueSize - fetchQueue_.size());
    return was_stalled ? 0 : 1;
}

unsigned
Pipeline::doDispatch()
{
    unsigned dispatched = 0;
    for (unsigned n = 0; n < params_.decodeWidth; ++n) {
        if (fetchQueue_.empty())
            break;
        DynInst *inst = fetchQueue_.front();
        if (inst->fetchReadyCycle > now_)
            break;
        if (rob_.full() || !rename_.canRename(inst->op))
            break;
        IssueQueue &iq = queueFor(inst);
        if (iq.full())
            break;
        if (inst->isLoad() && !lsq_.canDispatchLoad())
            break;
        if (inst->isStore() && !lsq_.canDispatchStore())
            break;

        rename_.rename(inst);
        DynInst *owned = rob_.allocate(inst);
        fetchQueue_.pop_front();
        iq.insert(owned);
        if (owned->isLoad())
            lsq_.dispatchLoad(owned);
        if (owned->isStore())
            lsq_.dispatchStore(owned);
        owned->stage = InstStage::Dispatched;
        subscribe(owned);
        ++dispatched;
    }
    if (dispatched)
        stats_.dispatched += dispatched;
    return dispatched;
}

// --------------------------------------------------------------------
// Issue and execute
// --------------------------------------------------------------------

bool
Pipeline::executeLoad(DynInst *load)
{
    SqCheckResult check = lsq_.loadIssue(load, now_);
    switch (check.outcome) {
      case SqCheck::Reject:
        ++stats_.loadRejections;
        load->retryCycle = now_ + params_.loadRetryDelay;
        return false;
      case SqCheck::Forward:
        ++stats_.loadForwards;
        lsq_.loadComplete(load, now_, check.producer->seq);
        completions_.schedule(load, now_ + 1 + mem_.l1d().latency(), now_);
        return true;
      case SqCheck::NoMatch:
        break;
    }
    if (check.sawUnresolvedOlder)
        ++stats_.speculativeLoads;
    ++dcachePortsUsed_;
    const unsigned lat = mem_.accessData(load->op.effAddr, false);
    lsq_.loadComplete(load, now_, invalidSeqNum);
    completions_.schedule(load, now_ + 1 + lat, now_);
    return true;
}

unsigned
Pipeline::doIssue()
{
    unsigned progress = 0;

    // Rejected loads retry ahead of new issues (they are older).
    // Every attempt — even a re-rejection — changes state (search
    // counters, retry cycle) and therefore counts as progress.
    for (auto it = retryLoads_.begin(); it != retryLoads_.end();) {
        DynInst *load = *it;
        if (load->retryCycle > now_ ||
            dcachePortsUsed_ >= params_.l1dPorts) {
            ++it;
            continue;
        }
        ++progress;
        if (executeLoad(load))
            it = retryLoads_.erase(it);
        else
            ++it;
    }

    // Merge the two ready sets oldest-first. Issuing never wakes
    // anything (completions land at least a cycle later), so both
    // sets are stable for the whole walk.
    unsigned picked = 0;
    std::size_t ii = 0;
    std::size_t fi = 0;
    const auto &iv = intIq_.ready();
    const auto &fv = fpIq_.ready();

    while (picked < params_.issueWidth &&
           (ii < iv.size() || fi < fv.size())) {
        DynInst *inst;
        if (fi >= fv.size() ||
            (ii < iv.size() && iv[ii]->seq < fv[fi]->seq)) {
            inst = iv[ii++];
        } else {
            inst = fv[fi++];
        }
        if (inst->isLoad() && dcachePortsUsed_ >= params_.l1dPorts)
            continue;
        unsigned latency = 0;
        if (!fuPool_.tryIssue(inst->op.cls, latency))
            continue;

        inst->stage = InstStage::Issued;
        inst->issueCycle = now_;
        regfile_.noteIssueReads(inst);
        ++picked;

        if (inst->isLoad()) {
            if (!executeLoad(inst))
                retryLoads_.push_back(inst);
        } else if (inst->isStore()) {
            // Stores resolve (and search/filter the LQ) at issue time,
            // the same point at which loads update the YLA registers;
            // the ROB-visible completion follows after address
            // generation.
            inst->doneCycle = now_;
            resolveStore(inst);
            completions_.schedule(inst, now_ + latency, now_);
        } else {
            // Branches resolve at completion; ALU ops simply finish.
            completions_.schedule(inst, now_ + latency, now_);
        }
    }

    intIq_.removeIssued(ii);
    fpIq_.removeIssued(fi);
    if (picked)
        stats_.issued += picked;
    return progress + picked;
}

// --------------------------------------------------------------------
// Completion, branch resolution, store resolution
// --------------------------------------------------------------------

unsigned
Pipeline::doCompletions()
{
    // Oldest first. A completing branch's squash cuts the younger
    // events still listed for this cycle.
    unsigned completed = 0;
    while (DynInst *inst = completions_.pop(now_)) {
        if (inst->stage != InstStage::Issued) {
            panic("completion of seq %llu, which is not issued",
                  static_cast<unsigned long long>(inst->seq));
        }
        completeInst(inst);
        ++completed;
    }
    return completed;
}

void
Pipeline::completeInst(DynInst *inst)
{
    inst->stage = InstStage::Done;
    inst->doneCycle = now_;
    regfile_.noteWriteback(inst);
    wakeWaiters(inst, [this](DynInst *consumer, unsigned slot) {
        if (slot == 2 && consumer->isStore())
            lsq_.storeDataReady(consumer);
        else if (!consumer->issueBlocked())
            queueFor(consumer).markReady(consumer);
    });

    if (inst->isBranch())
        resolveBranch(inst);
}

void
Pipeline::resolveStore(DynInst *inst)
{
    StoreResolveResult result = lsq_.storeResolve(inst, now_);
    if (result.violatingLoad) {
        // Deferred: squashing mid-issue would invalidate the issue
        // loop's view of the queues. Keep the oldest victim.
        if (!pendingReplay_ ||
            result.violatingLoad->seq < pendingReplay_->seq) {
            pendingReplay_ = result.violatingLoad;
        }
    }
    if (result.replayAllYounger) {
        if (!pendingAgeReplay_ ||
            inst->seq < pendingAgeReplay_->seq) {
            pendingAgeReplay_ = inst;
        }
    }
}

void
Pipeline::resolveBranch(DynInst *inst)
{
    if (inst->wrongPath)
        return;   // resolution of a wrong-path branch never redirects

    const MicroOp &op = inst->op;
    const bool mispredict = inst->pred.taken != op.taken ||
        (op.taken && inst->pred.target != op.targetPc);
    if (!mispredict)
        return;

    inst->mispredicted = true;
    ++stats_.branchMispredicts;
    if (op.branch == BranchKind::Return) {
        ++stats_.mispredReturn;
    } else if (inst->pred.taken != op.taken) {
        if (op.taken && !inst->pred.btbHit &&
            op.branch == BranchKind::Cond) {
            ++stats_.mispredBtbMiss;
        } else {
            ++stats_.mispredCond;
        }
    } else {
        ++stats_.mispredTarget;
    }
    predictor_.recover(op.pc, op.branch, inst->pred, op.taken,
                       op.pc + 4);
    squashFrom(inst->seq + 1);
    lsq_.branchRecovery(inst->seq);
    fetch_.redirectToTrace(inst->traceIndex + 1,
                           now_ + params_.redirectPenalty);
}

// --------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------

unsigned
Pipeline::doCommit()
{
    unsigned progress = 0;
    unsigned committed = 0;
    unsigned loads = 0;
    unsigned stores = 0;
    unsigned branches = 0;
    for (unsigned n = 0; n < params_.commitWidth; ++n) {
        DynInst *head = rob_.head();
        if (!head || head->stage != InstStage::Done)
            break;
        if (head->wrongPath)
            panic("wrong-path instruction reached the ROB head");
        if (head->isStore()) {
            if (!head->sqDataReady)
                break;
            if (dcachePortsUsed_ >= params_.l1dPorts)
                break;
        }

        // A load that was already replayed once re-executed with no
        // older in-flight store (the whole window drained before the
        // refetch), so its data is provably correct; never replay the
        // same dynamic load twice. This matters when safe-load
        // detection is disabled (ablation), where the re-execution
        // would otherwise hit the still-marked table entry forever.
        const bool replay_guard =
            head->isLoad() && head->traceIndex == lastDmdcReplayIndex_;

        ReplayClass rc = lsq_.commit(head, now_, replay_guard);

        // Safety property (all schemes): a load that truly read stale
        // data can never commit without having been replayed. The
        // ghost checker marks such loads independently of the
        // mechanism under test.
        if (head->isLoad() && head->ghostViolation && !rc.replay &&
            !replay_guard) {
            panic("true memory-order violation escaped replay "
                  "(load seq %llu, store seq %llu, scheme %s)",
                  static_cast<unsigned long long>(head->seq),
                  static_cast<unsigned long long>(
                      head->ghostViolatingStore),
                  lsq_.params().policy.c_str());
        }

        if (rc.replay) {
            ++stats_.dmdcReplays;
            {
                PipelineTrace &pt = pipelineTrace();
                traceInstantArg(pt.cat, pt.dmdcReplay, head->seq);
            }
            const std::uint64_t trace_index = head->traceIndex;
            lastDmdcReplayIndex_ = trace_index;
            squashFrom(head->seq);
            fetch_.redirectToTrace(trace_index,
                                   now_ + params_.redirectPenalty);
            ++progress;
            break;
        }

        if (head->isStore()) {
            mem_.accessData(head->op.effAddr, true);
            ++dcachePortsUsed_;
            ++stores;
        } else if (head->isLoad()) {
            ++loads;
        } else if (head->isBranch()) {
            ++branches;
            predictor_.update(head->op.pc, head->op.branch, head->pred,
                              head->op.taken, head->op.targetPc);
        }

        rename_.release(head);
        workload_.discardBefore(head->traceIndex);
        ++committed;
        rob_.retireHead();
    }
    // Flush the batched commit counters once per tick instead of
    // touching four Counter objects per committed instruction.
    if (committed) {
        stats_.committedInsts += committed;
        if (loads)
            stats_.committedLoads += loads;
        if (stores)
            stats_.committedStores += stores;
        if (branches)
            stats_.committedBranches += branches;
        progress += committed;
    }
    return progress;
}

// --------------------------------------------------------------------
// Squash machinery
// --------------------------------------------------------------------

void
Pipeline::squashFrom(SeqNum from_seq)
{
    // Structures holding raw pointers are purged before the ROB frees
    // the instructions.
    completions_.squashFrom(from_seq);
    std::erase_if(retryLoads_, [from_seq](const DynInst *inst) {
        return inst->seq >= from_seq;
    });
    lsq_.squashFrom(from_seq);

    while (!fetchQueue_.empty() &&
           fetchQueue_.back()->seq >= from_seq) {
        pool_.release(fetchQueue_.back());
        fetchQueue_.pop_back();
    }

    const SeqNum oldest_active =
        rob_.empty() ? invalidSeqNum : rob_.head()->seq;
    // The youngest-first walk frees issue-queue entries and unlinks
    // wakeup-list registrations (see DynInst::waiters).
    rob_.squashFrom(from_seq, [this, oldest_active](DynInst *inst) {
        rename_.squash(inst, oldest_active);
        dropWaiters(inst);
        if (inst->inIssueQueue)
            queueFor(inst).squash(inst);
    });
}

void
Pipeline::replayFrom(DynInst *load)
{
    ++stats_.baselineReplays;
    {
        PipelineTrace &pt = pipelineTrace();
        traceInstantArg(pt.cat, pt.baselineReplay, load->seq);
    }
    const bool wrong_path = load->wrongPath;
    const std::uint64_t trace_index = load->traceIndex;
    const Addr pc = load->op.pc;

    squashFrom(load->seq);
    if (wrong_path)
        fetch_.redirectWrongPath(pc, now_ + params_.redirectPenalty);
    else
        fetch_.redirectToTrace(trace_index,
                               now_ + params_.redirectPenalty);
}

// --------------------------------------------------------------------
// External events
// --------------------------------------------------------------------

void
Pipeline::externalInvalidation(Addr addr)
{
    mem_.invalidateLine(addr);
    const DynInst *head = rob_.head();
    const SeqNum oldest_active =
        head ? head->seq : fetch_.lastSeq() + 1;
    lsq_.invalidationArrived(addr, now_, oldest_active);
}

} // namespace dmdc
