/**
 * @file
 * Unit tests for the core structures: ROB, rename, issue queue,
 * completion wheel, FU pool, register-file activity.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/completion_wheel.hh"
#include "core/fu_pool.hh"
#include "core/issue_queue.hh"
#include "core/regfile.hh"
#include "core/rename.hh"
#include "core/rob.hh"

namespace dmdc
{
namespace
{

std::unique_ptr<DynInst>
makeInst(SeqNum seq, OpClass cls = OpClass::IntAlu,
         RegIndex dst = noReg, RegIndex src1 = noReg,
         RegIndex src2 = noReg)
{
    auto inst = std::make_unique<DynInst>();
    inst->seq = seq;
    inst->op.cls = cls;
    inst->op.dst = dst;
    inst->op.src1 = src1;
    inst->op.src2 = src2;
    return inst;
}

DynInst *
poolInst(DynInstPool &pool, SeqNum seq)
{
    DynInst *inst = pool.acquire();
    inst->seq = seq;
    return inst;
}

TEST(Rob, FifoOrderAndCapacity)
{
    DynInstPool pool(4);
    Rob rob(4, pool);
    EXPECT_TRUE(rob.empty());
    for (SeqNum s = 1; s <= 4; ++s)
        rob.allocate(poolInst(pool, s));
    EXPECT_TRUE(rob.full());
    EXPECT_EQ(rob.head()->seq, 1u);
    EXPECT_EQ(rob.tail()->seq, 4u);
    rob.retireHead();
    EXPECT_EQ(rob.head()->seq, 2u);
    EXPECT_FALSE(rob.full());
    EXPECT_EQ(pool.liveCount(), 3u);
}

TEST(Rob, SquashFromRemovesSuffixYoungestFirst)
{
    DynInstPool pool(8);
    Rob rob(8, pool);
    for (SeqNum s = 1; s <= 6; ++s)
        rob.allocate(poolInst(pool, s));
    std::vector<SeqNum> squashed;
    rob.squashFrom(4, [&](DynInst *inst) {
        squashed.push_back(inst->seq);
        EXPECT_EQ(inst->stage, InstStage::Squashed);
    });
    ASSERT_EQ(squashed.size(), 3u);
    EXPECT_EQ(squashed[0], 6u);
    EXPECT_EQ(squashed[1], 5u);
    EXPECT_EQ(squashed[2], 4u);
    EXPECT_EQ(rob.tail()->seq, 3u);
    EXPECT_EQ(pool.liveCount(), 3u);
}

TEST(Rob, OutOfOrderAllocationPanics)
{
    DynInstPool pool(8);
    Rob rob(8, pool);
    rob.allocate(poolInst(pool, 5));
    EXPECT_DEATH(rob.allocate(poolInst(pool, 3)), ".*age order.*");
}

TEST(Rename, BindsProducersAndTracksFreeRegs)
{
    RenameState rs(40, 40);   // 8 free in each file
    EXPECT_EQ(rs.freeIntRegs(), 8u);

    auto p = makeInst(1, OpClass::IntAlu, 5);
    rs.rename(p.get());
    EXPECT_EQ(rs.freeIntRegs(), 7u);

    auto c = makeInst(2, OpClass::IntAlu, 6, 5);
    rs.rename(c.get());
    EXPECT_EQ(c->src1Producer, p.get());
    EXPECT_EQ(c->src1ProducerSeq, 1u);

    // A consumer of an unwritten register has no producer.
    auto d = makeInst(3, OpClass::IntAlu, 7, 12);
    rs.rename(d.get());
    EXPECT_EQ(d->src1Producer, nullptr);
}

TEST(Rename, ReleaseClearsMapAndFreesReg)
{
    RenameState rs(40, 40);
    auto p = makeInst(1, OpClass::IntAlu, 5);
    rs.rename(p.get());
    rs.release(p.get());
    EXPECT_EQ(rs.freeIntRegs(), 8u);
    auto c = makeInst(2, OpClass::IntAlu, 6, 5);
    rs.rename(c.get());
    EXPECT_EQ(c->src1Producer, nullptr);   // value is architectural
}

TEST(Rename, SquashRestoresPreviousMapping)
{
    RenameState rs(40, 40);
    auto p1 = makeInst(1, OpClass::IntAlu, 5);
    auto p2 = makeInst(2, OpClass::IntAlu, 5);
    rs.rename(p1.get());
    rs.rename(p2.get());
    rs.squash(p2.get(), 1);   // oldest active = 1: p1 still in flight
    auto c = makeInst(3, OpClass::IntAlu, 6, 5);
    rs.rename(c.get());
    EXPECT_EQ(c->src1Producer, p1.get());
}

TEST(Rename, SquashDropsCommittedPrevMapping)
{
    RenameState rs(40, 40);
    auto p1 = makeInst(1, OpClass::IntAlu, 5);
    auto p2 = makeInst(2, OpClass::IntAlu, 5);
    rs.rename(p1.get());
    rs.rename(p2.get());
    rs.release(p1.get());      // p1 commits
    rs.squash(p2.get(), 3);    // oldest active seq is now 3
    auto c = makeInst(3, OpClass::IntAlu, 6, 5);
    rs.rename(c.get());
    EXPECT_EQ(c->src1Producer, nullptr);
}

TEST(Rename, FpAndIntFilesIndependent)
{
    RenameState rs(33, 34);
    EXPECT_EQ(rs.freeIntRegs(), 1u);
    EXPECT_EQ(rs.freeFpRegs(), 2u);
    auto p = makeInst(1, OpClass::IntAlu, 3);
    EXPECT_TRUE(rs.canRename(p->op));
    rs.rename(p.get());
    auto q = makeInst(2, OpClass::IntAlu, 4);
    EXPECT_FALSE(rs.canRename(q->op));
    auto f = makeInst(3, OpClass::FpAdd, firstFpReg + 2);
    EXPECT_TRUE(rs.canRename(f->op));
}

TEST(IssueQueue, ReadySetAgeOrderAndSquash)
{
    IssueQueue iq(4);
    auto a = makeInst(1);
    auto b = makeInst(2);
    auto c = makeInst(3);
    auto d = makeInst(4);
    for (DynInst *inst : {a.get(), b.get(), c.get(), d.get()})
        iq.insert(inst);
    EXPECT_TRUE(iq.full());
    EXPECT_TRUE(a->inIssueQueue);

    // Wakeups arrive out of age order; select sees them oldest-first.
    iq.markReady(c.get());
    iq.markReady(a.get());
    iq.markReady(d.get());
    EXPECT_EQ(iq.ready(),
              (std::vector<DynInst *>{a.get(), c.get(), d.get()}));

    // Select scanned a and c but issued only a.
    a->stage = InstStage::Issued;
    iq.removeIssued(2);
    EXPECT_FALSE(a->inIssueQueue);
    EXPECT_EQ(iq.size(), 3u);
    EXPECT_EQ(iq.ready(), (std::vector<DynInst *>{c.get(), d.get()}));

    iq.markReady(b.get());
    EXPECT_EQ(iq.ready(),
              (std::vector<DynInst *>{b.get(), c.get(), d.get()}));

    // The ROB's squash walk frees entries youngest-first.
    iq.squash(d.get());
    iq.squash(c.get());
    EXPECT_EQ(iq.size(), 1u);
    EXPECT_FALSE(d->inIssueQueue);
    EXPECT_TRUE(b->inIssueQueue);
    EXPECT_EQ(iq.ready(), (std::vector<DynInst *>{b.get()}));
}

/** Dispatch-state consumer of @p producer on source @p slot. */
void
waitOn(DynInst *producer, DynInst *consumer, unsigned slot)
{
    (slot == 0 ? consumer->src1Producer : consumer->src2Producer) =
        producer;
    consumer->stage = InstStage::Dispatched;
    addWaiter(producer, consumer, slot);
}

TEST(Wakeup, ProducerWakesEveryWaitingSource)
{
    DynInstPool pool(4);
    DynInst *p = poolInst(pool, 1);
    DynInst *b = poolInst(pool, 2);
    DynInst *c = poolInst(pool, 3);
    waitOn(p, b, 0);
    waitOn(p, c, 0);
    waitOn(p, c, 1);
    EXPECT_TRUE(c->issueBlocked());

    std::vector<std::pair<SeqNum, unsigned>> woken;
    wakeWaiters(p, [&](DynInst *inst, unsigned slot) {
        woken.emplace_back(inst->seq, slot);
    });
    // Youngest registration first.
    const std::vector<std::pair<SeqNum, unsigned>> want{
        {3, 1}, {3, 0}, {2, 0}};
    EXPECT_EQ(woken, want);
    EXPECT_FALSE(b->issueBlocked());
    EXPECT_FALSE(c->issueBlocked());
    EXPECT_EQ(p->waiters.inst, nullptr);
}

TEST(Wakeup, SquashedAndRecycledConsumerIsNotWoken)
{
    DynInstPool pool(4);
    DynInst *p = poolInst(pool, 1);
    p->stage = InstStage::Issued;
    DynInst *survivor = poolInst(pool, 2);
    DynInst *victim = poolInst(pool, 3);
    waitOn(p, survivor, 0);
    waitOn(p, victim, 0);
    waitOn(p, victim, 1);

    // Squash the victim while its producer is pending, the way the
    // ROB's squash walk does, and recycle its slot.
    victim->stage = InstStage::Squashed;
    dropWaiters(victim);
    pool.release(victim);
    DynInst *recycled = poolInst(pool, 4);
    ASSERT_EQ(recycled, victim);
    recycled->stage = InstStage::Dispatched;

    std::vector<DynInst *> woken;
    wakeWaiters(p, [&](DynInst *inst, unsigned) {
        woken.push_back(inst);
    });
    EXPECT_EQ(woken, std::vector<DynInst *>{survivor});
    EXPECT_EQ(recycled->waitMask, 0u);
}

TEST(WakeupDeathTest, StaleWaiterPanicsInsteadOfWakingRecycledSlot)
{
    DynInstPool pool(4);
    DynInst *p = poolInst(pool, 1);
    DynInst *victim = poolInst(pool, 2);
    waitOn(p, victim, 0);
    // A squash that skipped dropWaiters() leaves a stale link.
    pool.release(victim);
    DynInst *recycled = poolInst(pool, 3);
    recycled->stage = InstStage::Dispatched;
    EXPECT_DEATH(wakeWaiters(p, [](DynInst *, unsigned) {}),
                 ".*dead consumer.*");
}

// ---- completion wheel ------------------------------------------------

/** Issued instructions with seqs 1..n (index k holds seq k + 1). */
std::vector<std::unique_ptr<DynInst>>
issuedInsts(unsigned n)
{
    std::vector<std::unique_ptr<DynInst>> insts;
    for (unsigned k = 0; k < n; ++k) {
        insts.push_back(makeInst(k + 1));
        insts.back()->stage = InstStage::Issued;
    }
    return insts;
}

/** Pop everything due at @p now, as seqs. */
std::vector<SeqNum>
drain(CompletionWheel &wheel, Cycle now)
{
    std::vector<SeqNum> seqs;
    while (DynInst *inst = wheel.pop(now))
        seqs.push_back(inst->seq);
    return seqs;
}

TEST(CompletionWheel, SizedFromHorizon)
{
    EXPECT_EQ(CompletionWheel(139).size(), 256u);
    EXPECT_EQ(CompletionWheel(256).size(), 256u);
    EXPECT_EQ(CompletionWheel(319).size(), 512u);
    EXPECT_EQ(CompletionWheel(21).size(), 64u);
}

TEST(CompletionWheel, OutOfOrderArrivalsDrainSeqAscending)
{
    CompletionWheel wheel(139);
    auto in = issuedInsts(6);
    // Older long-latency ops land in the same cycle as younger short
    // ones scheduled before them.
    for (unsigned k : {4u, 2u, 5u, 0u, 3u})
        wheel.schedule(in[k].get(), 20, 10);
    wheel.schedule(in[1].get(), 21, 10);
    EXPECT_TRUE(drain(wheel, 19).empty());
    EXPECT_EQ(drain(wheel, 20), (std::vector<SeqNum>{1, 3, 4, 5, 6}));
    EXPECT_EQ(drain(wheel, 21), (std::vector<SeqNum>{2}));
    EXPECT_EQ(wheel.nextDue(21), 0u);
}

TEST(CompletionWheel, SquashCutsTheSuffixOfEveryBucket)
{
    CompletionWheel wheel(139);
    auto in = issuedInsts(8);
    const std::pair<unsigned, Cycle> events[] = {
        {0, 5}, {4, 5}, {6, 5}, {1, 7}, {5, 7}, {7, 9}};
    for (const auto &[k, when] : events)
        wheel.schedule(in[k].get(), when, 1);
    wheel.squashFrom(5);
    EXPECT_EQ(wheel.nextDue(1), 5u);
    EXPECT_EQ(drain(wheel, 5), (std::vector<SeqNum>{1}));
    EXPECT_EQ(drain(wheel, 7), (std::vector<SeqNum>{2}));
    // Bucket 9 held only squashed events: it no longer counts.
    EXPECT_EQ(wheel.nextDue(7), 0u);
    EXPECT_TRUE(drain(wheel, 9).empty());

    // A cut bucket takes appends again.
    wheel.schedule(in[2].get(), 12, 9);
    wheel.schedule(in[3].get(), 12, 9);
    EXPECT_EQ(drain(wheel, 12), (std::vector<SeqNum>{3, 4}));
}

TEST(CompletionWheel, SquashWhileDrainingCutsTheSameCycle)
{
    // A branch (seq 2) completes with younger events due in the same
    // cycle and at later cycles; its squash cuts them all, including
    // those still listed in the bucket being drained.
    CompletionWheel wheel(139);
    auto in = issuedInsts(6);
    for (unsigned k = 0; k < 5; ++k)
        wheel.schedule(in[k].get(), 30, 28);
    wheel.schedule(in[5].get(), 31, 28);
    EXPECT_EQ(wheel.pop(30)->seq, 1u);
    EXPECT_EQ(wheel.pop(30)->seq, 2u);
    wheel.squashFrom(3);
    EXPECT_EQ(wheel.pop(30), nullptr);
    EXPECT_EQ(wheel.nextDue(30), 0u);
}

TEST(CompletionWheel, NextDueFindsTheEarliestAcrossTheWrap)
{
    CompletionWheel wheel(139);
    auto in = issuedInsts(4);
    const Cycle now = 1000;   // bucket 1000 & 255 = 232
    wheel.schedule(in[0].get(), now + 100, now);   // wraps to bucket 76
    EXPECT_EQ(wheel.nextDue(now), now + 100);
    wheel.schedule(in[1].get(), now + 30, now);    // bucket 6
    EXPECT_EQ(wheel.nextDue(now), now + 30);
    wheel.schedule(in[2].get(), now + 20, now);    // bucket 252
    EXPECT_EQ(wheel.nextDue(now), now + 20);
    wheel.schedule(in[3].get(), now + 1, now);
    EXPECT_EQ(wheel.nextDue(now), now + 1);
    EXPECT_EQ(drain(wheel, now + 1), (std::vector<SeqNum>{4}));
    EXPECT_EQ(wheel.nextDue(now + 1), now + 20);
    wheel.squashFrom(3);
    EXPECT_EQ(wheel.nextDue(now + 1), now + 30);
    wheel.squashFrom(2);
    EXPECT_EQ(wheel.nextDue(now + 1), now + 100);
    // The last event sits one bucket behind `now`'s.
    EXPECT_EQ(wheel.nextDue(now + 100 - 255), now + 100);
    wheel.squashFrom(1);
    EXPECT_EQ(wheel.nextDue(now + 1), 0u);
}

TEST(CompletionWheelDeathTest, SchedulingAtNowPanics)
{
    CompletionWheel wheel(139);
    auto in = issuedInsts(1);
    EXPECT_DEATH(wheel.schedule(in[0].get(), 50, 50), ".*outside.*");
}

TEST(CompletionWheelDeathTest, SchedulingAtTheHorizonPanics)
{
    CompletionWheel wheel(139);
    auto in = issuedInsts(2);
    wheel.schedule(in[0].get(), 50 + 138, 50);
    EXPECT_DEATH(wheel.schedule(in[1].get(), 50 + 139, 50),
                 ".*outside.*");
}

TEST(FuPool, PerCycleBandwidth)
{
    FuPoolParams p;
    p.intAlu = 2;
    FuPool pool(p);
    pool.tick(1);
    unsigned lat = 0;
    EXPECT_TRUE(pool.tryIssue(OpClass::IntAlu, lat));
    EXPECT_EQ(lat, 1u);
    EXPECT_TRUE(pool.tryIssue(OpClass::Branch, lat));
    EXPECT_FALSE(pool.tryIssue(OpClass::IntAlu, lat));
    pool.tick(2);
    EXPECT_TRUE(pool.tryIssue(OpClass::IntAlu, lat));
}

TEST(FuPool, DividerIsUnpipelined)
{
    FuPoolParams p;
    FuPool pool(p);
    pool.tick(1);
    unsigned lat = 0;
    EXPECT_TRUE(pool.tryIssue(OpClass::IntDiv, lat));
    EXPECT_EQ(lat, p.intDivLat);
    pool.tick(2);
    EXPECT_FALSE(pool.tryIssue(OpClass::IntDiv, lat));
    pool.tick(1 + p.intDivLat);
    EXPECT_TRUE(pool.tryIssue(OpClass::IntDiv, lat));
}

TEST(FuPool, ClassLatencies)
{
    FuPoolParams p;
    FuPool pool(p);
    pool.tick(1);
    unsigned lat = 0;
    EXPECT_TRUE(pool.tryIssue(OpClass::IntMult, lat));
    EXPECT_EQ(lat, p.intMultLat);
    EXPECT_TRUE(pool.tryIssue(OpClass::FpAdd, lat));
    EXPECT_EQ(lat, p.fpAddLat);
    EXPECT_TRUE(pool.tryIssue(OpClass::FpMult, lat));
    EXPECT_EQ(lat, p.fpMultLat);
    EXPECT_TRUE(pool.tryIssue(OpClass::Load, lat));
    EXPECT_EQ(lat, p.intAluLat);
}

TEST(RegFileActivity, CountsByFile)
{
    RegFileActivity rf;
    auto inst = makeInst(1, OpClass::IntAlu, 3, 4, firstFpReg + 1);
    rf.noteIssueReads(inst.get());
    rf.noteWriteback(inst.get());
    EXPECT_EQ(rf.intReads(), 1u);
    EXPECT_EQ(rf.fpReads(), 1u);
    EXPECT_EQ(rf.intWrites(), 1u);
    EXPECT_EQ(rf.fpWrites(), 0u);
}

} // namespace
} // namespace dmdc
