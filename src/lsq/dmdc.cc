/**
 * @file
 * DMDC engine implementation.
 */

#include "lsq/dmdc.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/trace_sink.hh"

namespace dmdc
{

namespace
{

/** Interned-once trace identities for the LSQ checking structures. */
struct LsqTrace
{
    TraceCategory &cat = traceCategory("lsq");
    std::uint16_t probe = traceNameId("ct-probe");
    std::uint16_t probeHit = traceNameId("ct-probe-hit");
    std::uint16_t replay = traceNameId("window-replay");
};

LsqTrace &
lsqTrace()
{
    static LsqTrace ids;
    return ids;
}

} // namespace

DmdcEngine::DmdcEngine(const DmdcParams &params)
    : params_(params),
      ylaQw_(params.numYlaQw, quadWordBytes),
      ylaLine_(params.numYlaLine, params.lineBytes),
      stats_(std::make_unique<Stats>()),
      statGroup_("dmdc")
{
    if (params_.useQueue)
        queue_ = std::make_unique<CheckingQueue>(params_.queueEntries);
    else
        table_ = std::make_unique<CheckingTable>(params_.tableEntries);

    endCheck_ = invalidSeqNum;
}

DmdcEngine::~DmdcEngine() = default;

void
DmdcEngine::regStats(StatGroup &parent)
{
    auto &s = *stats_;
    statGroup_.regCounter("safe_stores", &s.safeStores);
    statGroup_.regCounter("unsafe_stores", &s.unsafeStores);
    statGroup_.regCounter("safe_loads", &s.safeLoadsMarked);
    statGroup_.regCounter("checking_cycles", &s.checkingCycles);
    statGroup_.regCounter("windows", &s.windows);
    statGroup_.regCounter("windows_single_store", &s.windowsSingleStore);
    statGroup_.regAverage("window_instrs", &s.windowInstrs);
    statGroup_.regAverage("window_loads", &s.windowLoads);
    statGroup_.regAverage("window_safe_loads", &s.windowSafeLoads);
    statGroup_.regAverage("window_unsafe_stores", &s.windowUnsafeStores);
    statGroup_.regAverage("window_marked_entries",
                          &s.windowMarkedEntries);
    statGroup_.regCounter("table_reads", &s.tableReads);
    statGroup_.regCounter("table_writes", &s.tableWrites);
    statGroup_.regCounter("replays", &s.replays);
    statGroup_.regCounter("true_replays", &s.trueReplays);
    statGroup_.regCounter("false_addr_x", &s.falseAddrX);
    statGroup_.regCounter("false_addr_y", &s.falseAddrY);
    statGroup_.regCounter("false_hash_before", &s.falseHashBefore);
    statGroup_.regCounter("false_hash_x", &s.falseHashX);
    statGroup_.regCounter("false_hash_y", &s.falseHashY);
    statGroup_.regCounter("false_overflow", &s.falseOverflow);
    statGroup_.regCounter("inv_activations", &s.invActivations);
    parent.addChild(&statGroup_);
}

void
DmdcEngine::loadIssued(Addr addr, SeqNum seq)
{
    ylaQw_.loadIssued(addr, seq);
    if (params_.coherence)
        ylaLine_.loadIssued(addr, seq);
}

void
DmdcEngine::storeResolved(DynInst *store, Cycle now)
{
    const Addr addr = store->op.effAddr;
    bool safe = ylaQw_.storeSafe(addr, store->seq);
    if (params_.coherence && !safe)
        safe = ylaLine_.storeSafe(addr, store->seq);

    store->safeStore = safe;
    if (safe) {
        if (!store->wrongPath)
            ++stats_->safeStores;
        return;
    }
    if (!store->wrongPath)
        ++stats_->unsafeStores;

    // The checking window must cover every load up to the youngest
    // load issued in this store's bank.
    store->capturedWindowEnd = ylaQw_.lookup(addr);
    (void)now;

    if (params_.variant == DmdcVariant::Global) {
        // Global end-check register is pushed at issue (resolve) time,
        // possibly extending a window another store will open.
        endCheck_ = std::max(endCheck_, store->capturedWindowEnd);
    }
}

void
DmdcEngine::branchRecovery(SeqNum branch_seq)
{
    ylaQw_.branchRecovery(branch_seq);
    if (params_.coherence)
        ylaLine_.branchRecovery(branch_seq);
    // Loads younger than the branch are gone; windows never need to
    // extend past the recovery point.
    endCheck_ = std::min(endCheck_, branch_seq);
}

ReplayClass
DmdcEngine::classifyReplay(const DynInst *load,
                           const std::vector<GhostStoreRecord> &gs,
                           bool overflow) const
{
    ReplayClass rc;
    rc.replay = true;
    rc.trueViolation = load->ghostViolation;
    rc.queueOverflow = overflow;
    if (rc.trueViolation || overflow)
        return rc;

    // Choose the ghost record that best explains the (false) replay:
    // prefer real-address matches, then in-window timing.
    const GhostStoreRecord *best = nullptr;
    bool best_addr = false;
    auto timing_of = [&](const GhostStoreRecord &g) {
        if (load->memIssueCycle < g.resolveCycle)
            return ReplayClass::Timing::Before;
        if (load->seq > g.seq && load->seq <= g.windowEnd)
            return ReplayClass::Timing::InWindowX;
        return ReplayClass::Timing::MergedY;
    };
    auto timing_rank = [](ReplayClass::Timing t) {
        switch (t) {
          case ReplayClass::Timing::Before:    return 2;
          case ReplayClass::Timing::InWindowX: return 1;
          case ReplayClass::Timing::MergedY:   return 0;
        }
        return 0;
    };
    for (const GhostStoreRecord &g : gs) {
        const bool am = rangesOverlap(load->op.effAddr,
                                      load->op.memSize, g.addr, g.size);
        if (!best || (am && !best_addr) ||
            (am == best_addr &&
             timing_rank(timing_of(g)) > timing_rank(timing_of(*best)))) {
            best = &g;
            best_addr = am;
        }
    }
    if (best) {
        rc.addrMatch = best_addr;
        rc.timing = timing_of(*best);
        // A false replay with a real address match cannot be "before"
        // (that combination is a true violation unless forwarding
        // intervened); fold the rare forwarding case into X.
        if (rc.addrMatch && rc.timing == ReplayClass::Timing::Before)
            rc.timing = ReplayClass::Timing::InWindowX;
    }
    return rc;
}

void
DmdcEngine::terminateWindow()
{
    auto &s = *stats_;
    s.windowInstrs.sample(static_cast<double>(winInstrs_));
    s.windowLoads.sample(static_cast<double>(winLoads_));
    s.windowSafeLoads.sample(static_cast<double>(winSafeLoads_));
    s.windowUnsafeStores.sample(static_cast<double>(winUnsafeStores_));
    if (winUnsafeStores_ == 1)
        ++s.windowsSingleStore;
    s.windowMarkedEntries.sample(static_cast<double>(winMarkedPeak_));

    if (table_)
        table_->clear();
    if (queue_)
        queue_->clear();
    checking_ = false;
    endCheck_ = invalidSeqNum;
    winInstrs_ = winLoads_ = winSafeLoads_ = winUnsafeStores_ = 0;
    winMarkedPeak_ = 0;
}

ReplayClass
DmdcEngine::commit(DynInst *inst, Cycle now, bool suppress_replay)
{
    ReplayClass rc;
    auto &s = *stats_;

    if (inst->isLoad() && inst->safeLoad && params_.safeLoads)
        ++s.safeLoadsMarked;

    // ---- unsafe store commits: mark the table, open/extend window ----
    if (inst->isStore() && !inst->safeStore) {
        GhostStoreRecord ghost;
        ghost.seq = inst->seq;
        ghost.addr = inst->op.effAddr;
        ghost.size = inst->op.memSize;
        ghost.windowEnd = inst->capturedWindowEnd;
        ghost.resolveCycle = inst->doneCycle;

        ++s.tableWrites;
        bool overflowed = false;
        if (table_) {
            table_->markStore(ghost.addr, ghost.size, ghost);
        } else {
            overflowed = !queue_->addStore(ghost.addr, ghost.size,
                                           ghost);
        }
        (void)overflowed;

        if (!checking_) {
            checking_ = true;
            ++s.windows;
        }
        ++winUnsafeStores_;
        if (queue_)
            winMarkedPeak_ = std::max(winMarkedPeak_,
                                      queue_->occupancy());
        else
            ++winMarkedPeak_;

        // Both variants (re)arm the end-check register at commit; the
        // global variant additionally pushed it at resolve time.
        endCheck_ = std::max(endCheck_, inst->capturedWindowEnd);
    }

    if (checking_) {
        ++winInstrs_;

        if (inst->isLoad()) {
            ++winLoads_;
            const bool safe = params_.safeLoads && inst->safeLoad;
            if (safe) {
                ++winSafeLoads_;
            } else {
                ++s.tableReads;
                TableCheck check;
                bool overflow = false;
                if (table_) {
                    check = table_->checkLoad(inst->op.effAddr,
                                              inst->op.memSize);
                } else {
                    check = queue_->checkLoad(inst->op.effAddr,
                                              inst->op.memSize);
                    overflow = queue_->overflowed();
                }
                {
                    LsqTrace &lt = lsqTrace();
                    if (lt.cat.on()) {
                        traceInstantArg(lt.cat,
                                        check.wrtHit ? lt.probeHit
                                                     : lt.probe,
                                        inst->op.effAddr);
                    }
                }
                if ((check.wrtHit || overflow) && !suppress_replay) {
                    rc = classifyReplay(inst, *check.ghosts, overflow);
                    ++s.replays;
                    traceInstantArg(lsqTrace().cat, lsqTrace().replay,
                                    inst->seq);
                    if (rc.trueViolation) {
                        ++s.trueReplays;
                    } else if (rc.queueOverflow) {
                        ++s.falseOverflow;
                    } else if (rc.addrMatch) {
                        if (rc.timing == ReplayClass::Timing::MergedY)
                            ++s.falseAddrY;
                        else
                            ++s.falseAddrX;
                    } else {
                        switch (rc.timing) {
                          case ReplayClass::Timing::Before:
                            ++s.falseHashBefore;
                            break;
                          case ReplayClass::Timing::InWindowX:
                            ++s.falseHashX;
                            break;
                          case ReplayClass::Timing::MergedY:
                            ++s.falseHashY;
                            break;
                        }
                    }
                    // The load is squashed and re-fetched; the window
                    // state stays as is (re-committed instructions are
                    // re-counted, as in the paper's simulator).
                    return rc;
                }
            }
        }

        // Window termination: the load the end-check register points
        // to (or any younger instruction) has committed.
        if (inst->seq >= endCheck_)
            terminateWindow();
    }

    (void)now;
    return rc;
}

void
DmdcEngine::invalidationArrived(Addr addr, Cycle now,
                                SeqNum oldest_active)
{
    if (!params_.coherence) {
        warn("invalidation delivered to a DMDC engine without "
             "coherence support");
        return;
    }
    auto &s = *stats_;
    ++s.invActivations;

    const SeqNum window_end = ylaLine_.lookup(addr);
    if (window_end == invalidSeqNum)
        return;   // no load ever issued in this line bank
    if (window_end < oldest_active)
        return;   // every recorded load has already committed

    if (table_)
        table_->markInvalidation(addr, params_.lineBytes);
    // The associative queue variant treats an invalidation as a
    // full-line pseudo store.
    if (queue_) {
        GhostStoreRecord ghost;
        ghost.seq = invalidSeqNum;
        ghost.addr = addr & ~Addr{params_.lineBytes - 1};
        ghost.size = params_.lineBytes;
        ghost.windowEnd = window_end;
        ghost.resolveCycle = now;
        queue_->addStore(ghost.addr, params_.lineBytes, ghost);
    }

    if (!checking_) {
        checking_ = true;
        ++s.windows;
    }
    endCheck_ = std::max(endCheck_, window_end);
}

void
DmdcEngine::tick()
{
    if (checking_)
        ++stats_->checkingCycles;
}

void
DmdcEngine::idleTicks(std::uint64_t n)
{
    // checking_ only changes on LSQ events, none of which occur during
    // skipped idle cycles, so n ticks collapse to one addition.
    if (checking_)
        stats_->checkingCycles += n;
}

} // namespace dmdc
