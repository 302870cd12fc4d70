/**
 * @file
 * Unit tests for the store queue and load queue: forwarding, rejection,
 * partial matches, violation search, squash behaviour.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "lsq/load_queue.hh"
#include "lsq/store_queue.hh"

namespace dmdc
{
namespace
{

/** Test fixture building DynInsts by hand. */
class LsqQueueTest : public ::testing::Test
{
  protected:
    DynInst *
    makeStore(SeqNum seq, Addr addr = invalidAddr, unsigned size = 8,
              bool addr_ready = false, bool data_ready = false)
    {
        auto inst = std::make_unique<DynInst>();
        inst->seq = seq;
        inst->op.cls = OpClass::Store;
        inst->op.effAddr = addr;
        inst->op.memSize = static_cast<std::uint8_t>(size);
        inst->sqAddrReady = addr_ready;
        inst->sqDataReady = data_ready;
        insts.push_back(std::move(inst));
        return insts.back().get();
    }

    DynInst *
    makeLoad(SeqNum seq, Addr addr, unsigned size = 8,
             bool issued = false, SeqNum fwd = invalidSeqNum)
    {
        auto inst = std::make_unique<DynInst>();
        inst->seq = seq;
        inst->op.cls = OpClass::Load;
        inst->op.effAddr = addr;
        inst->op.memSize = static_cast<std::uint8_t>(size);
        inst->loadIssued = issued;
        inst->forwardedFrom = fwd;
        insts.push_back(std::move(inst));
        return insts.back().get();
    }

    std::vector<std::unique_ptr<DynInst>> insts;
};

TEST_F(LsqQueueTest, ForwardFromYoungestMatchingOlderStore)
{
    StoreQueue sq(8);
    DynInst *s1 = makeStore(10, 0x1000, 8, true, true);
    DynInst *s2 = makeStore(20, 0x1000, 8, true, true);
    sq.allocate(s1);
    sq.allocate(s2);

    SqCheckResult r = sq.checkLoad(30, 0x1000, 8);
    EXPECT_EQ(r.outcome, SqCheck::Forward);
    EXPECT_EQ(r.producer, s2);   // youngest older match wins
}

TEST_F(LsqQueueTest, RejectWhenDataNotReady)
{
    StoreQueue sq(8);
    sq.allocate(makeStore(10, 0x1000, 8, true, false));
    SqCheckResult r = sq.checkLoad(30, 0x1000, 8);
    EXPECT_EQ(r.outcome, SqCheck::Reject);
}

TEST_F(LsqQueueTest, RejectOnPartialOverlap)
{
    StoreQueue sq(8);
    // 4-byte store at 0x1004 (data ready); 8-byte load at 0x1000
    // overlaps but is not contained.
    sq.allocate(makeStore(10, 0x1004, 4, true, true));
    SqCheckResult r = sq.checkLoad(30, 0x1000, 8);
    EXPECT_EQ(r.outcome, SqCheck::Reject);
}

TEST_F(LsqQueueTest, ContainedNarrowLoadForwards)
{
    StoreQueue sq(8);
    DynInst *s = makeStore(10, 0x1000, 8, true, true);
    sq.allocate(s);
    SqCheckResult r = sq.checkLoad(30, 0x1004, 4);
    EXPECT_EQ(r.outcome, SqCheck::Forward);
    EXPECT_EQ(r.producer, s);
}

TEST_F(LsqQueueTest, UnresolvedOlderStoreFlagsSpeculation)
{
    StoreQueue sq(8);
    sq.allocate(makeStore(10));   // unresolved address
    SqCheckResult r = sq.checkLoad(30, 0x2000, 8);
    EXPECT_EQ(r.outcome, SqCheck::NoMatch);
    EXPECT_TRUE(r.sawUnresolvedOlder);
    // A load older than the unresolved store is safe.
    EXPECT_FALSE(sq.checkLoad(5, 0x2000, 8).sawUnresolvedOlder);
}

TEST_F(LsqQueueTest, YoungerStoresDoNotAffectLoad)
{
    StoreQueue sq(8);
    sq.allocate(makeStore(40, 0x3000, 8, true, true));
    SqCheckResult r = sq.checkLoad(30, 0x3000, 8);
    EXPECT_EQ(r.outcome, SqCheck::NoMatch);
    EXPECT_FALSE(r.sawUnresolvedOlder);
}

TEST_F(LsqQueueTest, OldestStoreSeqForSec3Filter)
{
    StoreQueue sq(8);
    EXPECT_EQ(sq.oldestStoreSeq(), invalidSeqNum);
    sq.allocate(makeStore(10, 0x1000, 8, true, true));
    sq.allocate(makeStore(20, 0x2000, 8, true, true));
    EXPECT_EQ(sq.oldestStoreSeq(), 10u);
}

TEST_F(LsqQueueTest, SquashRemovesYoungSuffix)
{
    StoreQueue sq(8);
    DynInst *s1 = makeStore(10, 0x1000, 8, true, true);
    sq.allocate(s1);
    sq.allocate(makeStore(20, 0x1000, 8, true, true));
    sq.allocate(makeStore(30, 0x1000, 8, true, true));
    sq.squashFrom(20);
    EXPECT_EQ(sq.size(), 1u);
    SqCheckResult r = sq.checkLoad(40, 0x1000, 8);
    EXPECT_EQ(r.producer, s1);
}

TEST_F(LsqQueueTest, ReleaseHeadInOrder)
{
    StoreQueue sq(4);
    DynInst *s1 = makeStore(10, 0x1000, 8, true, true);
    DynInst *s2 = makeStore(20, 0x2000, 8, true, true);
    sq.allocate(s1);
    sq.allocate(s2);
    sq.releaseHead(s1);
    EXPECT_EQ(sq.oldestStoreSeq(), 20u);
}

// ---------------------------------------------------------------

TEST_F(LsqQueueTest, ViolationFindsPrematureYoungerLoad)
{
    LoadQueue lq(8);
    DynInst *premature = makeLoad(30, 0x1000, 8, true);
    lq.allocate(premature);
    EXPECT_EQ(lq.searchViolation(10, 0x1000, 8), premature);
}

TEST_F(LsqQueueTest, NoViolationForUnissuedLoad)
{
    LoadQueue lq(8);
    lq.allocate(makeLoad(30, 0x1000, 8, false));
    EXPECT_EQ(lq.searchViolation(10, 0x1000, 8), nullptr);
}

TEST_F(LsqQueueTest, NoViolationForOlderLoad)
{
    LoadQueue lq(8);
    lq.allocate(makeLoad(5, 0x1000, 8, true));
    EXPECT_EQ(lq.searchViolation(10, 0x1000, 8), nullptr);
}

TEST_F(LsqQueueTest, NoViolationWhenForwardedFromYoungerStore)
{
    LoadQueue lq(8);
    // Load got its data from store seq 20 (younger than the resolving
    // store seq 10): its value is already correct.
    lq.allocate(makeLoad(30, 0x1000, 8, true, 20));
    EXPECT_EQ(lq.searchViolation(10, 0x1000, 8), nullptr);
}

TEST_F(LsqQueueTest, ViolationWhenForwardedFromOlderStore)
{
    LoadQueue lq(8);
    // Load forwarded from store seq 5, which the resolving store seq
    // 10 overwrites: stale data.
    DynInst *victim = makeLoad(30, 0x1000, 8, true, 5);
    lq.allocate(victim);
    EXPECT_EQ(lq.searchViolation(10, 0x1000, 8), victim);
}

TEST_F(LsqQueueTest, ViolationReturnsOldestOffender)
{
    LoadQueue lq(8);
    DynInst *first = makeLoad(30, 0x1000, 8, true);
    DynInst *second = makeLoad(40, 0x1004, 4, true);
    lq.allocate(first);
    lq.allocate(second);
    EXPECT_EQ(lq.searchViolation(10, 0x1000, 8), first);
}

TEST_F(LsqQueueTest, PartialOverlapIsAViolation)
{
    LoadQueue lq(8);
    DynInst *victim = makeLoad(30, 0x1004, 4, true);
    lq.allocate(victim);
    // 8-byte store covering 0x1000-0x1007 overlaps the 4-byte load.
    EXPECT_EQ(lq.searchViolation(10, 0x1000, 8), victim);
    // Disjoint store does not.
    EXPECT_EQ(lq.searchViolation(10, 0x1008, 8), nullptr);
}

TEST_F(LsqQueueTest, LoadQueueSquashAndRelease)
{
    LoadQueue lq(8);
    DynInst *l1 = makeLoad(10, 0x1000, 8, true);
    lq.allocate(l1);
    lq.allocate(makeLoad(20, 0x2000, 8, true));
    lq.squashFrom(20);
    EXPECT_EQ(lq.size(), 1u);
    lq.releaseHead(l1);
    EXPECT_EQ(lq.size(), 0u);
}

} // namespace
} // namespace dmdc
