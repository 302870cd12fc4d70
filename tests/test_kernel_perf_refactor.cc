/**
 * @file
 * Tests for the fast-kernel refactor: the DynInst object pool and
 * ring buffer, the store queue's binary-search checkLoad() (checked
 * against a linear reference after every queue mutation), and
 * equivalence of the event-driven idle skip with cycle-by-cycle
 * ticking.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/object_pool.hh"
#include "common/random.hh"
#include "core/pipeline.hh"
#include "lsq/dmdc.hh"
#include "lsq/store_queue.hh"
#include "sim/machine_config.hh"
#include "trace/spec_suite.hh"

namespace dmdc
{
namespace
{

// ---- object pool ----------------------------------------------------

TEST(ObjectPoolTest, LifoReuseAndReset)
{
    ObjectPool<DynInst> pool(4);
    DynInst *a = pool.acquire();
    a->seq = 42;
    a->sqAddrReady = true;
    EXPECT_EQ(pool.liveCount(), 1u);
    pool.release(a);
    EXPECT_EQ(pool.liveCount(), 0u);

    // LIFO freelist: the released object comes back first, reset to
    // its default-constructed state.
    DynInst *b = pool.acquire();
    EXPECT_EQ(b, a);
    EXPECT_EQ(b->seq, DynInst{}.seq);
    EXPECT_FALSE(b->sqAddrReady);
    pool.release(b);
}

TEST(ObjectPoolTest, FreshSlabHandsOutAddressOrder)
{
    ObjectPool<int> pool(8);
    int *prev = pool.acquire();
    for (int i = 1; i < 8; ++i) {
        int *next = pool.acquire();
        EXPECT_LT(prev, next);
        prev = next;
    }
}

TEST(ObjectPoolTest, UnboundedPoolGrowsInSlabs)
{
    ObjectPool<int> pool(2);
    std::vector<int *> live;
    for (int i = 0; i < 5; ++i)
        live.push_back(pool.acquire());
    EXPECT_EQ(pool.liveCount(), 5u);
    EXPECT_GE(pool.capacity(), 5u);
    for (int *obj : live)
        pool.release(obj);
    EXPECT_EQ(pool.liveCount(), 0u);
}

// The structured bindings name every member, so a new DynInst (or
// nested) member does not compile here until it is listed; the 0xA5
// poisoning then fails the comparison if it has no initializer.
void
expectFresh(const WaiterLink &got, const WaiterLink &want)
{
    const auto &[inst, seq] = got;
    EXPECT_EQ(inst, want.inst);
    EXPECT_EQ(seq, want.seq);
}

void
expectFresh(const MicroOp &got, const MicroOp &want)
{
    const auto &[pc, cls, memSize, dst, src1, src2, src3, branch, taken,
                 effAddr, targetPc, nextPc] = got;
    EXPECT_EQ(pc, want.pc);
    EXPECT_EQ(cls, want.cls);
    EXPECT_EQ(memSize, want.memSize);
    EXPECT_EQ(dst, want.dst);
    EXPECT_EQ(src1, want.src1);
    EXPECT_EQ(src2, want.src2);
    EXPECT_EQ(src3, want.src3);
    EXPECT_EQ(branch, want.branch);
    EXPECT_EQ(taken, want.taken);
    EXPECT_EQ(effAddr, want.effAddr);
    EXPECT_EQ(targetPc, want.targetPc);
    EXPECT_EQ(nextPc, want.nextPc);
}

void
expectFresh(const BranchPrediction &got, const BranchPrediction &want)
{
    const auto &[taken, target, btbHit, usedRas, bimodalTaken,
                 gshareTaken, choseGshare, historyBefore, rasBefore] = got;
    EXPECT_EQ(taken, want.taken);
    EXPECT_EQ(target, want.target);
    EXPECT_EQ(btbHit, want.btbHit);
    EXPECT_EQ(usedRas, want.usedRas);
    EXPECT_EQ(bimodalTaken, want.bimodalTaken);
    EXPECT_EQ(gshareTaken, want.gshareTaken);
    EXPECT_EQ(choseGshare, want.choseGshare);
    EXPECT_EQ(historyBefore, want.historyBefore);
    const auto &[rasTop, rasSize] = rasBefore;
    EXPECT_EQ(rasTop, want.rasBefore.top);
    EXPECT_EQ(rasSize, want.rasBefore.size);
}

void
expectFresh(const DynInst &got, const DynInst &want)
{
    const auto &[op, seq, traceIndex, wrongPath, stage, nextEvent,
                 fetchReadyCycle, issueCycle, doneCycle, src1Producer,
                 src2Producer, src3Producer, src1ProducerSeq,
                 src2ProducerSeq, src3ProducerSeq, renamePrev,
                 renamePrevSeq, inIssueQueue, waitMask, waiters,
                 nextWaiter, pred, mispredicted, sqAddrReady, sqDataReady,
                 loadIssued, memIssueCycle, forwardedFrom, retryCycle,
                 safeLoad, safeStore, capturedWindowEnd, ghostViolation,
                 ghostViolatingStore] = got;
    expectFresh(op, want.op);
    EXPECT_EQ(seq, want.seq);
    EXPECT_EQ(traceIndex, want.traceIndex);
    EXPECT_EQ(wrongPath, want.wrongPath);
    EXPECT_EQ(stage, want.stage);
    EXPECT_EQ(nextEvent, want.nextEvent);
    EXPECT_EQ(fetchReadyCycle, want.fetchReadyCycle);
    EXPECT_EQ(issueCycle, want.issueCycle);
    EXPECT_EQ(doneCycle, want.doneCycle);
    EXPECT_EQ(src1Producer, want.src1Producer);
    EXPECT_EQ(src2Producer, want.src2Producer);
    EXPECT_EQ(src3Producer, want.src3Producer);
    EXPECT_EQ(src1ProducerSeq, want.src1ProducerSeq);
    EXPECT_EQ(src2ProducerSeq, want.src2ProducerSeq);
    EXPECT_EQ(src3ProducerSeq, want.src3ProducerSeq);
    EXPECT_EQ(renamePrev, want.renamePrev);
    EXPECT_EQ(renamePrevSeq, want.renamePrevSeq);
    EXPECT_EQ(inIssueQueue, want.inIssueQueue);
    EXPECT_EQ(waitMask, want.waitMask);
    expectFresh(waiters, want.waiters);
    for (int k = 0; k < 3; ++k)
        expectFresh(nextWaiter[k], want.nextWaiter[k]);
    expectFresh(pred, want.pred);
    EXPECT_EQ(mispredicted, want.mispredicted);
    EXPECT_EQ(sqAddrReady, want.sqAddrReady);
    EXPECT_EQ(sqDataReady, want.sqDataReady);
    EXPECT_EQ(loadIssued, want.loadIssued);
    EXPECT_EQ(memIssueCycle, want.memIssueCycle);
    EXPECT_EQ(forwardedFrom, want.forwardedFrom);
    EXPECT_EQ(retryCycle, want.retryCycle);
    EXPECT_EQ(safeLoad, want.safeLoad);
    EXPECT_EQ(safeStore, want.safeStore);
    EXPECT_EQ(capturedWindowEnd, want.capturedWindowEnd);
    EXPECT_EQ(ghostViolation, want.ghostViolation);
    EXPECT_EQ(ghostViolatingStore, want.ghostViolatingStore);
}

TEST(ObjectPoolTest, RecycledDynInstEqualsFresh)
{
    ObjectPool<DynInst> pool(4);
    DynInst *a = pool.acquire();
    pool.release(a);
    // Every byte of the released slot is garbage, so any member that
    // acquire() leaves unset shows up as 0xA5.
    std::memset(static_cast<void *>(a), 0xA5, sizeof(DynInst));
    DynInst *b = pool.acquire();
    ASSERT_EQ(b, a);
    expectFresh(*b, DynInst{});
    pool.release(b);
}

// ---- ring buffer ----------------------------------------------------

TEST(RingBufferTest, WrapAroundKeepsOldestFirstOrder)
{
    RingBuffer<int> rb(4);
    EXPECT_TRUE(rb.empty());
    EXPECT_EQ(rb.capacity(), 4u);

    rb.push_back(1);
    rb.push_back(2);
    rb.push_back(3);
    rb.pop_front();
    rb.pop_front();
    // head has advanced; these pushes wrap physically.
    rb.push_back(4);
    rb.push_back(5);
    rb.push_back(6);
    EXPECT_TRUE(rb.full());
    EXPECT_EQ(rb.size(), 4u);
    EXPECT_EQ(rb.front(), 3);
    EXPECT_EQ(rb.back(), 6);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(rb[static_cast<std::size_t>(i)], 3 + i);
}

TEST(RingBufferTest, PopBackAndClear)
{
    RingBuffer<int> rb(3);
    rb.push_back(7);
    rb.push_back(8);
    rb.pop_back();
    EXPECT_EQ(rb.back(), 7);
    EXPECT_EQ(rb.size(), 1u);
    rb.clear();
    EXPECT_TRUE(rb.empty());
    rb.push_back(9);
    EXPECT_EQ(rb.front(), 9);
}

// ---- SQ checkLoad vs. brute force ------------------------------------

/**
 * Seed-style reference for StoreQueue::checkLoad over a mirror of the
 * queue contents: walk youngest-first, skipping younger stores one by
 * one.
 */
SqCheckResult
linearCheckLoad(const std::deque<DynInst *> &mirror, SeqNum load_seq,
                Addr addr, unsigned size)
{
    SqCheckResult r;
    for (auto it = mirror.rbegin(); it != mirror.rend(); ++it) {
        DynInst *store = *it;
        if (store->seq >= load_seq)
            continue;
        if (!store->sqAddrReady) {
            r.sawUnresolvedOlder = true;
            continue;
        }
        if (!rangesOverlap(addr, size, store->op.effAddr,
                           store->op.memSize))
            continue;
        const bool contains = store->op.effAddr <= addr &&
            addr + size <= store->op.effAddr + store->op.memSize;
        if (contains && store->sqDataReady)
            r.outcome = SqCheck::Forward;
        else
            r.outcome = SqCheck::Reject;
        r.producer = store;
        return r;
    }
    return r;
}

/** True iff every store older than @p load_seq has its address. */
bool
everyOlderStoreResolved(const std::deque<DynInst *> &mirror,
                        SeqNum load_seq)
{
    for (const DynInst *store : mirror) {
        if (store->seq < load_seq && !store->sqAddrReady)
            return false;
    }
    return true;
}

void
expectCheckLoadMatches(const StoreQueue &sq,
                       const std::deque<DynInst *> &mirror,
                       SeqNum load_seq, Addr addr, unsigned size,
                       int step)
{
    const SqCheckResult got = sq.checkLoad(load_seq, addr, size);
    const SqCheckResult want =
        linearCheckLoad(mirror, load_seq, addr, size);
    ASSERT_EQ(got.outcome, want.outcome) << "step " << step;
    ASSERT_EQ(got.producer, want.producer) << "step " << step;
    ASSERT_EQ(got.sawUnresolvedOlder, want.sawUnresolvedOlder)
        << "step " << step << " load " << load_seq;
}

/**
 * Every queue mutation (allocate, resolve, release, squash) keeps
 * checkLoad() equal to the linear reference. Probes at an address no
 * store touches never match, so the scan sees every older store and
 * sawUnresolvedOlder is exactly the safe-load test of Fig. 1b.
 */
TEST(StoreQueueIncrementalTest, RandomizedAgainstOracle)
{
    constexpr unsigned capacity = 16;
    constexpr Addr untouched = Addr{1} << 20; // past every store
    StoreQueue sq(capacity);
    std::deque<DynInst *> mirror;
    std::vector<std::unique_ptr<DynInst>> owned;
    Rng rng(0xd31c0de);
    SeqNum next_seq = 1;

    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t op = rng.range(10);
        if (op < 5 && mirror.size() < capacity) {
            auto inst = std::make_unique<DynInst>();
            inst->seq = next_seq++;
            inst->op.cls = OpClass::Store;
            inst->op.memSize = 8;
            if (rng.range(2)) {
                inst->op.effAddr = rng.range(1 << 16) & ~Addr{7};
                inst->sqAddrReady = true;
                inst->sqDataReady = rng.range(2) != 0;
            }
            sq.allocate(inst.get());
            mirror.push_back(inst.get());
            owned.push_back(std::move(inst));
        } else if (op < 7 && !mirror.empty()) {
            // Resolve a random (possibly already-resolved) store.
            DynInst *store = mirror[rng.range(mirror.size())];
            if (!store->sqAddrReady)
                store->op.effAddr = rng.range(1 << 16) & ~Addr{7};
            sq.setAddress(store);
            ASSERT_TRUE(store->sqAddrReady) << "step " << step;
        } else if (op < 8 && !mirror.empty()) {
            sq.releaseHead(mirror.front());
            mirror.pop_front();
        } else if (op < 9 && !mirror.empty()) {
            // Squash a random suffix.
            const SeqNum from =
                mirror[rng.range(mirror.size())]->seq;
            sq.squashFrom(from);
            while (!mirror.empty() && mirror.back()->seq >= from)
                mirror.pop_back();
        }

        ASSERT_EQ(sq.size(), mirror.size()) << "step " << step;
        ASSERT_EQ(sq.oldestStoreSeq(),
                  mirror.empty() ? invalidSeqNum : mirror.front()->seq)
            << "step " << step;
        // Probe the interesting seq boundaries, and every store's own
        // age (the load just younger and just older than it).
        std::vector<SeqNum> probes = {SeqNum{1}, next_seq / 2, next_seq,
                                      next_seq + 5};
        for (const DynInst *store : mirror) {
            probes.push_back(store->seq);
            probes.push_back(store->seq + 1);
        }
        for (const SeqNum probe : probes) {
            ASSERT_EQ(sq.checkLoad(probe, untouched, 8).sawUnresolvedOlder,
                      !everyOlderStoreResolved(mirror, probe))
                << "step " << step << " probe " << probe;
            ASSERT_NO_FATAL_FAILURE(expectCheckLoadMatches(
                sq, mirror, probe, untouched, 8, step));
        }
        // And one load that may match a resolved store.
        ASSERT_NO_FATAL_FAILURE(expectCheckLoadMatches(
            sq, mirror, 1 + rng.range(next_seq + 4),
            rng.range(1 << 16) & ~Addr{7}, 8, step));
    }
}

TEST(StoreQueueIncrementalTest, CheckLoadMatchesLinearReference)
{
    constexpr unsigned capacity = 12;
    StoreQueue sq(capacity);
    std::deque<DynInst *> mirror;
    std::vector<std::unique_ptr<DynInst>> owned;
    Rng rng(0xf00dfeed);
    SeqNum next_seq = 1;

    for (int step = 0; step < 3000; ++step) {
        if (mirror.size() == capacity ||
            (!mirror.empty() && rng.range(4) == 0)) {
            sq.releaseHead(mirror.front());
            mirror.pop_front();
        } else {
            auto inst = std::make_unique<DynInst>();
            inst->seq = next_seq++;
            inst->op.cls = OpClass::Store;
            // Small address space to force overlaps.
            inst->op.effAddr = rng.range(64) * 4;
            inst->op.memSize =
                static_cast<std::uint8_t>(4u << rng.range(2));
            inst->sqAddrReady = rng.range(4) != 0;
            inst->sqDataReady =
                inst->sqAddrReady && rng.range(2) != 0;
            sq.allocate(inst.get());
            mirror.push_back(inst.get());
            owned.push_back(std::move(inst));
        }

        const SeqNum load_seq = 1 + rng.range(next_seq + 4);
        const Addr addr = rng.range(64) * 4;
        const unsigned size = 4u << rng.range(2);
        ASSERT_NO_FATAL_FAILURE(expectCheckLoadMatches(
            sq, mirror, load_seq, addr, size, step));
    }
}

// ---- idle-skip equivalence ------------------------------------------

/**
 * The event-driven skip must be invisible: a pipeline driven by the
 * skip loop commits the same instructions at the same cycles with the
 * same stats as one ticked every cycle.
 */
void
expectSkipEquivalence(const std::string &scheme, unsigned config,
                      unsigned mem_latency)
{
    CoreParams p = makeMachineConfig(config);
    applyScheme(p, scheme);
    if (mem_latency)
        p.mem.memLatency = mem_latency;

    // gcc mispredicts often and, by 20 k instructions, has replayed
    // under every scheme, so all squash sources run.
    auto w_tick = makeSpecWorkload("gcc");
    auto w_skip = makeSpecWorkload("gcc");
    Pipeline ticked(p, *w_tick);
    Pipeline skipped(p, *w_skip);

    constexpr std::uint64_t target = 20000;
    std::uint64_t guard = 0;
    while (ticked.committed() < target) {
        ticked.tick();
        ASSERT_LT(++guard, 10000000u) << "ticked pipeline wedged";
    }
    guard = 0;
    while (skipped.committed() < target) {
        const unsigned progress = skipped.tick();
        if (progress == 0 && skipped.committed() < target) {
            const Cycle wake = skipped.nextEventCycle();
            ASSERT_NE(wake, 0u) << "idle with no wake event";
            if (wake > skipped.now() + 1)
                skipped.skipIdleCycles(wake - skipped.now() - 1);
        }
        ASSERT_LT(++guard, 10000000u) << "skipped pipeline wedged";
    }

    EXPECT_EQ(ticked.now(), skipped.now()) << scheme;
    const PipelineStats &a = ticked.stats();
    const PipelineStats &b = skipped.stats();
    EXPECT_EQ(a.cycles.value(), b.cycles.value()) << scheme;
    EXPECT_EQ(a.committedInsts.value(), b.committedInsts.value());
    EXPECT_EQ(a.committedLoads.value(), b.committedLoads.value());
    EXPECT_EQ(a.committedStores.value(), b.committedStores.value());
    EXPECT_EQ(a.committedBranches.value(),
              b.committedBranches.value());
    EXPECT_EQ(a.dispatched.value(), b.dispatched.value());
    EXPECT_EQ(a.issued.value(), b.issued.value());
    EXPECT_EQ(a.branchMispredicts.value(),
              b.branchMispredicts.value());
    EXPECT_EQ(a.baselineReplays.value(), b.baselineReplays.value());
    EXPECT_EQ(a.dmdcReplays.value(), b.dmdcReplays.value());
    EXPECT_EQ(a.ageTableReplays.value(), b.ageTableReplays.value());
    EXPECT_GT(a.baselineReplays.value() + a.dmdcReplays.value() +
                  a.ageTableReplays.value(),
              0u)
        << scheme << ": no replay squash exercised";
    EXPECT_EQ(a.loadRejections.value(), b.loadRejections.value());
    EXPECT_EQ(a.loadForwards.value(), b.loadForwards.value());
    EXPECT_EQ(a.speculativeLoads.value(), b.speculativeLoads.value());
    EXPECT_EQ(ticked.fetch().icacheStallCycles.value(),
              skipped.fetch().icacheStallCycles.value())
        << scheme;
    EXPECT_EQ(ticked.fetch().fetchedTotal.value(),
              skipped.fetch().fetchedTotal.value());
    const auto &act_a = ticked.lsq().activity();
    const auto &act_b = skipped.lsq().activity();
    EXPECT_EQ(act_a.lqSearches.value(), act_b.lqSearches.value());
    EXPECT_EQ(act_a.sqSearches.value(), act_b.sqSearches.value());
    if (const DmdcEngine *ea = ticked.lsq().dmdc()) {
        const DmdcEngine *eb = skipped.lsq().dmdc();
        ASSERT_NE(eb, nullptr);
        // checkingCycles is the one stat idle skipping touches
        // directly (skipIdleCycles forwards bulk cycles to the
        // policy), so it is the sharpest equivalence probe.
        EXPECT_EQ(ea->stats().checkingCycles.value(),
                  eb->stats().checkingCycles.value())
            << scheme;
    }
}

struct SkipCase
{
    const char *scheme;
    unsigned config;
    unsigned memLatency = 0;   ///< 0: the config's own
};

class IdleSkipEquivalenceTest : public ::testing::TestWithParam<SkipCase>
{
};

TEST_P(IdleSkipEquivalenceTest, MatchesTickedRun)
{
    expectSkipEquivalence(GetParam().scheme, GetParam().config,
                          GetParam().memLatency);
}

// Every squash source (branch recovery, baseline violation replay,
// DMDC commit replay, age-table squash-all-younger) must purge the
// wakeup lists and ready sets; config 3 has 64-entry issue queues.
// A 300-cycle memory sizes the completion wheel to 512 buckets, and
// idle skips across long misses wrap it.
INSTANTIATE_TEST_SUITE_P(
    Schemes, IdleSkipEquivalenceTest,
    ::testing::Values(SkipCase{"baseline", 2}, SkipCase{"yla", 2},
                      SkipCase{"dmdc-global", 2},
                      SkipCase{"dmdc-local", 2},
                      SkipCase{"dmdc-queue", 2},
                      SkipCase{"age-table", 2},
                      SkipCase{"bloom-yla", 2}, SkipCase{"baseline", 3},
                      SkipCase{"dmdc-global", 3},
                      SkipCase{"age-table", 3},
                      SkipCase{"dmdc-global", 2, 300}),
    [](const ::testing::TestParamInfo<SkipCase> &info) {
        std::string name = std::string(info.param.scheme) + "_c" +
            std::to_string(info.param.config);
        if (info.param.memLatency)
            name += "_mem" + std::to_string(info.param.memLatency);
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace dmdc
