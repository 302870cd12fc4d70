/**
 * @file
 * Unit tests for the synthetic workload layer: address streams, branch
 * behaviour models, workload determinism and mix calibration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "trace/address_stream.hh"
#include "trace/branch_model.hh"
#include "trace/spec_suite.hh"
#include "trace/synthetic.hh"

namespace dmdc
{
namespace
{

TEST(StridedStream, WalksAndWraps)
{
    StridedStream s(0x1000, 64, 16);
    EXPECT_EQ(s.next(), 0x1000u);
    EXPECT_EQ(s.next(), 0x1010u);
    EXPECT_EQ(s.next(), 0x1020u);
    EXPECT_EQ(s.next(), 0x1030u);
    EXPECT_EQ(s.next(), 0x1000u);   // wrapped
}

TEST(StridedStream, RestartStaysInRegion)
{
    Rng rng(3);
    StridedStream s(0x2000, 256, 8);
    for (int i = 0; i < 100; ++i) {
        s.restart(rng);
        const Addr a = s.next();
        EXPECT_GE(a, 0x2000u);
        EXPECT_LT(a, 0x2000u + 256);
        EXPECT_EQ(a % 8, 0u);
    }
}

TEST(PointerChaseStream, StaysInRegionAndIsDeterministic)
{
    PointerChaseStream a(0x10000, 4096, 77);
    PointerChaseStream b(0x10000, 4096, 77);
    std::set<Addr> seen;
    for (int i = 0; i < 500; ++i) {
        const Addr x = a.next();
        EXPECT_EQ(x, b.next());
        EXPECT_GE(x, 0x10000u);
        EXPECT_LT(x, 0x10000u + 4096);
        EXPECT_EQ(x % 8, 0u);
        seen.insert(x);
    }
    // A real walk visits many distinct nodes.
    EXPECT_GT(seen.size(), 100u);
}

TEST(HotRegion, BoundsRespected)
{
    Rng rng(5);
    HotRegion h(0x7fff0000, 4096);
    for (int i = 0; i < 1000; ++i) {
        const Addr a = h.next(rng);
        EXPECT_GE(a, 0x7fff0000u);
        EXPECT_LT(a, 0x7fff0000u + 4096);
    }
}

TEST(RecentStoreBuffer, SampleReturnsPushedAddresses)
{
    Rng rng(9);
    const GeometricTable back(4.0);
    RecentStoreBuffer buf(8);
    EXPECT_TRUE(buf.empty());
    unsigned size = 0;
    EXPECT_EQ(buf.sample(rng, size, back), invalidAddr);

    std::set<Addr> pushed;
    for (Addr a = 0x100; a < 0x100 + 16 * 8; a += 8) {
        buf.push(a, 4);
        pushed.insert(a);
    }
    for (int i = 0; i < 200; ++i) {
        const Addr a = buf.sample(rng, size, back);
        EXPECT_TRUE(pushed.count(a));
        EXPECT_EQ(size, 4u);
    }
}

TEST(BranchModel, LoopBackPattern)
{
    StaticBranchState b(BranchBehavior::LoopBack, 1, 4, 0.9);
    // taken 3 times, then not taken, repeating.
    for (int rep = 0; rep < 3; ++rep) {
        EXPECT_TRUE(b.nextOutcome());
        EXPECT_TRUE(b.nextOutcome());
        EXPECT_TRUE(b.nextOutcome());
        EXPECT_FALSE(b.nextOutcome());
    }
}

TEST(BranchModel, BiasedRates)
{
    StaticBranchState taken(BranchBehavior::BiasedTaken, 2, 4, 0.9);
    StaticBranchState not_taken(BranchBehavior::BiasedNotTaken, 3, 4,
                                0.9);
    int t1 = 0;
    int t2 = 0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        t1 += taken.nextOutcome();
        t2 += not_taken.nextOutcome();
    }
    EXPECT_NEAR(t1 / double(n), 0.9, 0.02);
    EXPECT_NEAR(t2 / double(n), 0.1, 0.02);
}

TEST(BranchModel, PatternedIsPeriodic)
{
    StaticBranchState b(BranchBehavior::Patterned, 4, 6, 0.9);
    std::vector<bool> first;
    for (int i = 0; i < 6; ++i)
        first.push_back(b.nextOutcome());
    for (int rep = 0; rep < 5; ++rep) {
        for (int i = 0; i < 6; ++i)
            EXPECT_EQ(b.nextOutcome(), first[i]);
    }
}

TEST(SpecSuite, Has26NamedBenchmarks)
{
    EXPECT_EQ(specIntNames().size(), 12u);
    EXPECT_EQ(specFpNames().size(), 14u);
    EXPECT_EQ(specAllNames().size(), 26u);
    for (const auto &n : specIntNames())
        EXPECT_FALSE(specIsFp(n));
    for (const auto &n : specFpNames())
        EXPECT_TRUE(specIsFp(n));
}

TEST(SpecSuite, DistinctSeeds)
{
    std::set<std::uint64_t> seeds;
    for (const auto &n : specAllNames())
        seeds.insert(specParams(n).seed);
    EXPECT_EQ(seeds.size(), specAllNames().size());
}

TEST(SyntheticWorkload, TraceIsDeterministicAndReReadable)
{
    auto w1 = makeSpecWorkload("gzip");
    auto w2 = makeSpecWorkload("gzip");
    for (std::uint64_t i = 0; i < 5000; ++i) {
        const MicroOp &a = w1->op(i);
        const MicroOp &b = w2->op(i);
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(static_cast<int>(a.cls), static_cast<int>(b.cls));
        EXPECT_EQ(a.effAddr, b.effAddr);
        EXPECT_EQ(a.nextPc, b.nextPc);
    }
    // Re-reading an index inside the retained window is stable.
    const Addr pc_100 = w1->op(100).pc;
    (void)w1->op(4000);
    EXPECT_EQ(w1->op(100).pc, pc_100);
}

TEST(SyntheticWorkload, ControlFlowIsConsistent)
{
    auto w = makeSpecWorkload("gcc");
    for (std::uint64_t i = 0; i + 1 < 20000; ++i) {
        const MicroOp op = w->op(i);
        const MicroOp &next = w->op(i + 1);
        EXPECT_EQ(next.pc, op.nextPc)
            << "discontinuity at index " << i;
        if (!op.isBranch()) {
            EXPECT_EQ(op.nextPc, op.pc + 4);
        }
        if (op.isBranch() && op.taken) {
            EXPECT_EQ(op.nextPc, op.targetPc);
        }
    }
}

TEST(SyntheticWorkload, MemoryOpsAreAlignedAndSized)
{
    auto w = makeSpecWorkload("swim");
    for (std::uint64_t i = 0; i < 30000; ++i) {
        const MicroOp op = w->op(i);
        if (!op.isMem())
            continue;
        EXPECT_TRUE(op.memSize == 1 || op.memSize == 2 ||
                    op.memSize == 4 || op.memSize == 8);
        EXPECT_EQ(op.effAddr % op.memSize, 0u)
            << "unaligned access at index " << i;
        EXPECT_NE(op.effAddr, invalidAddr);
        if (op.isStore()) {
            EXPECT_NE(op.src3, noReg);
        }
    }
}

TEST(SyntheticWorkload, MixRoughlyMatchesParams)
{
    for (const char *name : {"gzip", "swim"}) {
        auto w = makeSpecWorkload(name);
        const WorkloadParams p = specParams(name);
        std::map<OpClass, unsigned> counts;
        constexpr unsigned n = 60000;
        for (std::uint64_t i = 0; i < n; ++i)
            ++counts[w->op(i).cls];
        const double load_frac = counts[OpClass::Load] / double(n);
        const double store_frac = counts[OpClass::Store] / double(n);
        // Branch slots dilute body fractions; allow generous slack.
        EXPECT_NEAR(load_frac, p.loadFrac * 0.88, 0.06) << name;
        EXPECT_NEAR(store_frac, p.storeFrac * 0.88, 0.04) << name;
        EXPECT_GT(counts[OpClass::Branch], n / 25) << name;
    }
}

TEST(SyntheticWorkload, FpBenchmarkUsesFpUnits)
{
    auto w = makeSpecWorkload("mgrid");
    unsigned fp_ops = 0;
    for (std::uint64_t i = 0; i < 30000; ++i)
        fp_ops += w->op(i).isFp();
    EXPECT_GT(fp_ops, 3000u);

    auto wi = makeSpecWorkload("bzip2");
    fp_ops = 0;
    for (std::uint64_t i = 0; i < 30000; ++i)
        fp_ops += wi->op(i).isFp();
    EXPECT_LT(fp_ops, 3000u);
}

TEST(SyntheticWorkload, WrongPathIsDeterministicPerPcAndSalt)
{
    auto w = makeSpecWorkload("vpr");
    const Addr pc = w->op(0).pc + 4 * 17;
    const MicroOp a = w->wrongPathOp(pc, 5);
    const MicroOp b = w->wrongPathOp(pc, 5);
    EXPECT_EQ(a.effAddr, b.effAddr);
    EXPECT_EQ(a.dst, b.dst);
    const MicroOp c = w->wrongPathOp(pc, 6);
    // Same static slot: same class.
    EXPECT_EQ(static_cast<int>(a.cls), static_cast<int>(c.cls));
}

TEST(SyntheticWorkload, DiscardBeforePreventsOldReads)
{
    auto w = makeSpecWorkload("gap");
    (void)w->op(1000);
    w->discardBefore(500);
    EXPECT_EQ(w->op(500).pc, w->op(500).pc);   // still readable
    EXPECT_DEATH((void)w->op(100), ".*");
}

/** Order-sensitive fold of every MicroOp field into @p h. */
std::uint64_t
foldOp(std::uint64_t h, const MicroOp &op)
{
    const std::uint64_t fields[] = {
        op.pc, op.nextPc, op.targetPc, op.effAddr,
        static_cast<std::uint64_t>(op.cls),
        static_cast<std::uint64_t>(op.branch),
        static_cast<std::uint64_t>(op.taken),
        static_cast<std::uint16_t>(op.dst),
        static_cast<std::uint16_t>(op.src1),
        static_cast<std::uint16_t>(op.src2),
        static_cast<std::uint16_t>(op.src3),
        op.memSize,
    };
    for (const std::uint64_t f : fields) {
        h = (h ^ f) * 0x100000001b3ull;
        h ^= h >> 29;
    }
    return h;
}

/**
 * Fingerprint of a benchmark's stream: the first 200 k correct-path
 * ops, then 10 k wrong-path ops at PCs inside, past the end of, and
 * below the code region.
 */
std::uint64_t
streamFingerprint(const std::string &name)
{
    auto w = makeSpecWorkload(name);
    // Every stream starts at the first slot of its code region.
    const Addr code_base = w->op(0).pc;
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t i = 0; i < 200000; ++i) {
        h = foldOp(h, w->op(i));
        w->discardBefore(i);
    }
    for (std::uint64_t i = 0; i < 10000; ++i) {
        const Addr pc = (i % 16 == 0) ? i * 0x1000 + 2
                                      : code_base + 4 * (i * 13);
        h = foldOp(h, w->wrongPathOp(pc, i * 3 + 1));
    }
    return h;
}

/**
 * The generated streams are part of every result: schemes are only
 * comparable on the same trace, and cached results are keyed on the
 * benchmark name, not on the stream. Any change to these values
 * changes the trace of that benchmark.
 */
TEST(SyntheticWorkload, StreamFingerprintsArePinned)
{
    const std::map<std::string, std::uint64_t> pinned = {
        {"bzip2", 0xa53f66e963cc714aull},
        {"crafty", 0x290ef9b783e5425eull},
        {"eon", 0x70db3bef260a88c2ull},
        {"gap", 0x572d42d040a6c27bull},
        {"gcc", 0x32894f56a166f4e8ull},
        {"gzip", 0xd28dc7f344cbf8aeull},
        {"mcf", 0x8882a664c6775d9eull},
        {"parser", 0xda92477516aaac70ull},
        {"perlbmk", 0x94238de9cd943a89ull},
        {"twolf", 0xe889dd08a743be4ull},
        {"vortex", 0x88bc0de6bb2e67dfull},
        {"vpr", 0xfc737f80d03d533ull},
        {"ammp", 0x873102cb3848ea13ull},
        {"applu", 0xf72a1294edbf38d0ull},
        {"apsi", 0x9c35f62e909153fdull},
        {"art", 0x956dbc645eef5401ull},
        {"equake", 0x1150eff42748d200ull},
        {"facerec", 0xaf1675cf985980eeull},
        {"fma3d", 0xf956363cb7a91b9aull},
        {"galgel", 0x82d5636431c9ca6ull},
        {"lucas", 0x5c4cb413b2b27084ull},
        {"mesa", 0xe7f820def287c453ull},
        {"mgrid", 0x93020afd0c548f55ull},
        {"sixtrack", 0xbfa8bdd674233f5cull},
        {"swim", 0x66e59a0fcacc7ba8ull},
        {"wupwise", 0xc97ea7fef22b99feull},
    };
    ASSERT_EQ(pinned.size(), specAllNames().size());
    for (const auto &name : specAllNames())
        EXPECT_EQ(streamFingerprint(name), pinned.at(name)) << name;
}

/**
 * Reading with a commit lag of ~700 ops makes the op window grow past
 * its initial capacity and wrap many times; every re-read after a
 * discard must still see the fresh stream.
 */
TEST(SyntheticWorkload, WindowGrowsAndWrapsUnderDiscardLag)
{
    constexpr std::uint64_t n = 20000;
    auto ref = makeSpecWorkload("sixtrack");
    std::vector<MicroOp> want;
    for (std::uint64_t i = 0; i < n + 10; ++i)
        want.push_back(ref->op(i));

    auto w = makeSpecWorkload("sixtrack");
    auto same = [&](std::uint64_t i) {
        const MicroOp &op = w->op(i);
        return foldOp(0, op) == foldOp(0, want[i]);
    };
    constexpr std::uint64_t lag = 700;
    std::uint64_t keep = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same(i)) << "index " << i;
        if (i < lag)
            continue;
        // Vary the lag so the live range straddles the wrap point at
        // every phase.
        keep = std::max(keep, i - lag + i % 97);
        w->discardBefore(keep);
        ASSERT_TRUE(same(keep)) << "oldest retained " << keep;
        ASSERT_TRUE(same((keep + i) / 2)) << "middle " << i;
        ASSERT_TRUE(same(i)) << "newest " << i;
    }
    // Discarding past the generated end empties the window; reading
    // resumes at the first ungenerated index.
    w->discardBefore(n + 50);
    for (std::uint64_t i = n; i < n + 10; ++i)
        EXPECT_TRUE(same(i)) << "after the end " << i;
}

TEST(SyntheticWorkload, UnknownBenchmarkIsFatal)
{
    EXPECT_EXIT((void)makeSpecWorkload("quake3"),
                ::testing::ExitedWithCode(1), ".*unknown.*");
}

} // namespace
} // namespace dmdc
