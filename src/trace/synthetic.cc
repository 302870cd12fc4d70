/**
 * @file
 * Synthetic workload generator implementation.
 */

#include "trace/synthetic.hh"

#include <algorithm>
#include <array>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace dmdc
{

namespace
{

constexpr Addr codeBaseAddr = 0x00400000;
constexpr Addr dataBaseAddr = 0x10000000;
constexpr Addr hotBaseAddr = 0x7fff0000;
constexpr unsigned instBytes = 4;
/** Initial op-window capacity (a power of two); it doubles on demand. */
constexpr std::size_t initialWindow = 16;

/** Step a ring index forward by one slot. */
template <typename Ring>
void
advance(unsigned &head, const Ring &ring)
{
    if (++head == ring.size())
        head = 0;
}

/** The entry @p back >= 1 slots behind @p head, at most the ring's
 *  oldest. */
template <typename Ring>
auto
behind(const Ring &ring, unsigned head, unsigned back)
{
    if (back > ring.size())
        back = static_cast<unsigned>(ring.size());
    unsigned idx = head - back;
    if (head < back)
        idx += static_cast<unsigned>(ring.size());
    return ring[idx];
}

} // namespace

/** One static micro-op slot of the synthesized program. */
struct StaticSlot
{
    OpClass cls = OpClass::IntAlu;
    BranchKind bkind = BranchKind::NotABranch;
    std::uint32_t targetSlot = 0;   ///< branch target (slot index)
    std::int32_t branchId = -1;     ///< behaviour state for Cond
};

/** Static program: slots, branch behaviours and function entries. */
struct SyntheticWorkload::Static
{
    std::vector<StaticSlot> slots;
    std::vector<StaticBranchState> branchStates;
    std::vector<std::uint32_t> funcEntries;
};

/** Trace-generation (architectural-path) state. */
struct SyntheticWorkload::DynState
{
    explicit DynState(const WorkloadParams &p)
        : rng(p.seed * 0x2545f4914f6cdd1dull + 1),
          depDist(GeometricTable::forMean(p.depDistMean)),
          aluChain(GeometricTable::forMean(2.0)),
          shareBack(GeometricTable::forMean(4.0)),
          nearStoreBack(GeometricTable::forMean(1.5)),
          chase(dataBaseAddr, Addr{1} << p.footprintLog2,
                p.seed ^ 0xabcdefull),
          hotLoad(hotBaseAddr, (Addr{1} << p.hotLog2) / 2),
          hotStore(hotBaseAddr + (Addr{1} << p.hotLog2) / 2,
                   (Addr{1} << p.hotLog2) / 2),
          recentStores(48)
    {
        recentInt.fill(1);
        recentIntAlu.fill(1);
        recentFp.fill(firstFpReg);
        recentLoadDst.fill(1);

        const Addr footprint = Addr{1} << p.footprintLog2;
        // Mostly word/double-word strides: consecutive accesses reuse
        // cache lines, as real loop nests do.
        static constexpr std::array<Addr, 6> stride_choices{
            4, 8, 4, 8, 16, 64};
        for (unsigned i = 0; i < p.numStreams; ++i) {
            const Addr stride =
                stride_choices[rng.range(stride_choices.size())];
            StridedStream s(dataBaseAddr, footprint, stride);
            s.restart(rng);
            streams.push_back(s);
        }
    }

    Rng rng;
    const GeometricTable &depDist;        ///< producer-consumer distance
    const GeometricTable &aluChain;       ///< index-arithmetic chains
    const GeometricTable &shareBack;      ///< store distance, shared loads
    const GeometricTable &nearStoreBack;  ///< store distance, near loads
    std::uint32_t curSlot = 0;
    std::vector<std::uint32_t> callStack;

    std::array<RegIndex, 24> recentInt;
    std::array<RegIndex, 12> recentIntAlu;  ///< ALU results only
    std::array<RegIndex, 16> recentFp;
    unsigned intHead = 0;
    unsigned intAluHead = 0;
    unsigned fpHead = 0;
    unsigned intDstCounter = 0;
    unsigned fpDstCounter = 0;

    RegIndex chaseReg = 1;
    std::array<RegIndex, 8> recentLoadDst;
    unsigned loadDstHead = 0;

    std::vector<StridedStream> streams;
    unsigned streamRR = 0;
    PointerChaseStream chase;
    /**
     * Hot (stack/global) accesses are split into disjoint load and
     * store halves: real code's same-variable reuse flows through the
     * shared/near paths above, while unconstrained random collisions
     * here would manufacture order violations far above the
     * few-per-million rates real codes exhibit.
     */
    HotRegion hotLoad;
    HotRegion hotStore;
    RecentStoreBuffer recentStores;
};

SyntheticWorkload::SyntheticWorkload(const WorkloadParams &params)
    : params_(params),
      static_(std::make_unique<Static>()),
      dyn_(std::make_unique<DynState>(params)),
      window_(initialWindow),
      windowMask_(initialWindow - 1)
{
    if (params_.numMainBlocks < 4)
        fatal("workload '%s': need at least 4 main blocks",
              params_.name.c_str());
    buildStaticProgram();
}

SyntheticWorkload::~SyntheticWorkload() = default;

void
SyntheticWorkload::buildStaticProgram()
{
    Rng build_rng(params_.seed ^ 0x5deece66dull);
    auto &st = *static_;

    // ---- pass 1: block lengths and start indices ----
    struct BlockPlan { std::uint32_t start; std::uint32_t len; };
    std::vector<BlockPlan> main_blocks(params_.numMainBlocks);
    // Functions are 1-3 blocks; record per-function block plans.
    std::vector<std::vector<BlockPlan>> funcs(params_.numFunctions);

    std::uint32_t cursor = 0;
    for (auto &b : main_blocks) {
        b.start = cursor;
        b.len = 2 + build_rng.geometric(params_.blockLenMean);
        cursor += b.len;
    }
    for (auto &f : funcs) {
        const unsigned nblocks = 1 + build_rng.range(3);
        f.resize(nblocks);
        for (auto &b : f) {
            b.start = cursor;
            b.len = 2 + build_rng.geometric(params_.blockLenMean);
            cursor += b.len;
        }
        st.funcEntries.push_back(f.front().start);
    }
    st.slots.resize(cursor);

    // ---- helpers ----
    auto sample_alu_class = [&]() -> OpClass {
        if (build_rng.chance(params_.fpFrac)) {
            const double q = build_rng.uniform();
            if (q < params_.divFrac)
                return OpClass::FpDiv;
            if (q < params_.divFrac + params_.mulFrac * 4)
                return OpClass::FpMult;
            return OpClass::FpAdd;
        }
        const double q = build_rng.uniform();
        if (q < params_.divFrac)
            return OpClass::IntDiv;
        if (q < params_.divFrac + params_.mulFrac)
            return OpClass::IntMult;
        return OpClass::IntAlu;
    };

    // Stratified per-block class assignment: whichever blocks become
    // the hot loops, their mix matches the configured fractions (plain
    // per-slot sampling lets a lucky load-poor loop dominate the
    // dynamic mix).
    auto stratified_count = [&](double frac, std::uint32_t n) {
        const double want = frac * n;
        std::uint32_t whole = static_cast<std::uint32_t>(want);
        if (build_rng.chance(want - whole))
            ++whole;
        return whole;
    };

    auto make_cond_state = [&](bool loop_back) -> std::int32_t {
        BranchBehavior beh;
        if (loop_back) {
            beh = BranchBehavior::LoopBack;
        } else {
            const double r = build_rng.uniform();
            if (r < params_.biasedFrac) {
                beh = build_rng.chance(0.5) ? BranchBehavior::BiasedTaken
                                            : BranchBehavior::BiasedNotTaken;
            } else if (r < params_.biasedFrac + params_.patternedFrac) {
                beh = BranchBehavior::Patterned;
            } else {
                beh = BranchBehavior::Random;
            }
        }
        // Loop trips follow the configured mean; periodic patterns are
        // kept short enough for the 13-bit global history to learn.
        // Minimum trip of 6 keeps loop-exit mispredictions (one per
        // trip) at realistic rates; very short loops are unrolled or
        // perfectly predicted in real codes anyway.
        const unsigned trip = beh == BranchBehavior::Patterned
            ? 5 + static_cast<unsigned>(build_rng.range(4))
            : 5 + build_rng.geometric(params_.loopTripMean);
        st.branchStates.emplace_back(beh, build_rng.next(), trip,
                                     params_.takenBias);
        return static_cast<std::int32_t>(st.branchStates.size() - 1);
    };

    auto fill_body = [&](const BlockPlan &b) {
        const std::uint32_t body = b.len - 1;
        std::vector<OpClass> classes;
        classes.reserve(body);
        std::uint32_t loads = stratified_count(params_.loadFrac, body);
        std::uint32_t all_stores =
            stratified_count(params_.storeFrac, body);
        if (loads + all_stores > body) {
            loads = std::min(loads, body);
            all_stores = body - loads;
        }
        for (std::uint32_t i = 0; i < loads; ++i)
            classes.push_back(OpClass::Load);
        for (std::uint32_t i = 0; i < all_stores; ++i)
            classes.push_back(OpClass::Store);
        while (classes.size() < body)
            classes.push_back(sample_alu_class());
        // Fisher-Yates shuffle for a natural interleaving.
        for (std::size_t i = classes.size(); i > 1; --i) {
            const std::size_t j = build_rng.range(i);
            std::swap(classes[i - 1], classes[j]);
        }
        for (std::uint32_t i = 0; i < body; ++i)
            st.slots[b.start + i].cls = classes[i];
    };

    // ---- pass 2: fill main blocks ----
    for (std::size_t i = 0; i < main_blocks.size(); ++i) {
        const auto &b = main_blocks[i];
        fill_body(b);
        StaticSlot &term = st.slots[b.start + b.len - 1];
        term.cls = OpClass::Branch;

        if (i + 1 == main_blocks.size()) {
            // Outer infinite loop: jump back to the first block.
            term.bkind = BranchKind::Uncond;
            term.targetSlot = main_blocks.front().start;
            continue;
        }

        const double r = build_rng.uniform();
        if (r < params_.loopBackProb) {
            // Loop back to an earlier (or this) block start.
            const std::size_t lo = i >= 8 ? i - 8 : 0;
            const std::size_t j = lo + build_rng.range(i - lo + 1);
            term.bkind = BranchKind::Cond;
            term.targetSlot = main_blocks[j].start;
            term.branchId = make_cond_state(true);
        } else if (r < params_.loopBackProb + params_.callProb &&
                   !st.funcEntries.empty()) {
            term.bkind = BranchKind::Call;
            term.targetSlot =
                st.funcEntries[build_rng.range(st.funcEntries.size())];
        } else {
            // Forward conditional skipping 1-3 blocks.
            const std::size_t skip = 1 + build_rng.range(3);
            const std::size_t j =
                std::min(i + 1 + skip, main_blocks.size() - 1);
            term.bkind = BranchKind::Cond;
            term.targetSlot = main_blocks[j].start;
            term.branchId = make_cond_state(false);
        }
    }

    // ---- pass 3: fill function blocks ----
    for (const auto &f : funcs) {
        for (std::size_t i = 0; i < f.size(); ++i) {
            const auto &b = f[i];
            fill_body(b);
            StaticSlot &term = st.slots[b.start + b.len - 1];
            term.cls = OpClass::Branch;
            if (i + 1 == f.size()) {
                term.bkind = BranchKind::Return;
            } else {
                // Short forward conditional within the function.
                term.bkind = BranchKind::Cond;
                term.targetSlot = f.back().start;
                term.branchId = make_cond_state(false);
            }
        }
    }
}

void
SyntheticWorkload::generateNext()
{
    auto &st = *static_;
    auto &d = *dyn_;
    const StaticSlot &slot = st.slots[d.curSlot];

    MicroOp op;
    op.pc = codeBaseAddr + Addr{d.curSlot} * instBytes;
    op.cls = slot.cls;

    auto pick_int_src = [&]() -> RegIndex {
        return behind(d.recentInt, d.intHead, d.depDist.sample(d.rng));
    };
    auto pick_fp_src = [&]() -> RegIndex {
        return behind(d.recentFp, d.fpHead, d.depDist.sample(d.rng));
    };
    auto pick_alu_src = [&]() -> RegIndex {
        // Short index-arithmetic chains: recent ALU results only.
        return behind(d.recentIntAlu, d.intAluHead,
                      d.aluChain.sample(d.rng));
    };
    auto new_int_dst = [&](bool alu_result) -> RegIndex {
        // Avoid reg 0; cycle through a window of the int file.
        const RegIndex r =
            static_cast<RegIndex>(1 + (d.intDstCounter++ % 30));
        d.recentInt[d.intHead] = r;
        advance(d.intHead, d.recentInt);
        if (alu_result) {
            d.recentIntAlu[d.intAluHead] = r;
            advance(d.intAluHead, d.recentIntAlu);
        }
        return r;
    };
    auto new_fp_dst = [&]() -> RegIndex {
        const RegIndex r = static_cast<RegIndex>(
            firstFpReg + (d.fpDstCounter++ % 30));
        d.recentFp[d.fpHead] = r;
        advance(d.fpHead, d.recentFp);
        return r;
    };
    auto pick_size = [&](bool fp_dst) -> unsigned {
        if (d.rng.chance(params_.smallSizeFrac))
            return d.rng.chance(0.5) ? 1 : 2;
        if (fp_dst)
            return 8;
        return d.rng.chance(0.4) ? 8 : 4;
    };

    switch (slot.cls) {
      case OpClass::Load: {
        const bool chase_load = d.rng.chance(params_.chaseFrac);
        const bool shared = !chase_load &&
            !d.recentStores.empty() && d.rng.chance(params_.shareProb);
        const bool near_store = !chase_load && !shared &&
            !d.recentStores.empty() &&
            d.rng.chance(params_.nearStoreFrac);
        bool fp_dst = false;

        if (chase_load) {
            op.src1 = d.chaseReg;
            op.effAddr = d.chase.next();
            op.memSize = 8;
            op.dst = new_int_dst(false);
            d.chaseReg = op.dst;
        } else if (shared) {
            unsigned ssize = 8;
            const Addr a =
                d.recentStores.sample(d.rng, ssize, d.shareBack);
            op.src1 = pick_int_src();
            fp_dst = params_.fp && d.rng.chance(0.7);
            op.memSize = d.rng.chance(0.8)
                ? ssize : pick_size(fp_dst);
            op.effAddr = a & ~Addr{op.memSize - 1u};
            op.dst = fp_dst ? new_fp_dst() : new_int_dst(false);
        } else if (near_store) {
            // Same cache line as a very recent (often still in-flight)
            // store, different quad word.
            unsigned ssize = 8;
            const Addr store_addr =
                d.recentStores.sample(d.rng, ssize, d.nearStoreBack);
            fp_dst = params_.fp && d.rng.chance(0.7);
            op.src1 = pick_alu_src();
            op.memSize = fp_dst ? 8 : (d.rng.chance(0.5) ? 8 : 4);
            const Addr line = store_addr & ~Addr{63};
            const Addr store_qw = (store_addr >> 3) & 7;
            const Addr other_qw = (store_qw + 1 +
                                   d.rng.range(7)) & 7;
            op.effAddr = (line | (other_qw << 3)) &
                ~Addr{op.memSize - 1u};
            op.dst = fp_dst ? new_fp_dst() : new_int_dst(false);
        } else {
            op.src1 = pick_int_src();
            fp_dst = params_.fp && d.rng.chance(0.7);
            op.memSize = static_cast<std::uint8_t>(pick_size(fp_dst));
            Addr a;
            if (d.rng.chance(params_.strideFrac) && !d.streams.empty()) {
                a = d.streams[d.streamRR].next();
                advance(d.streamRR, d.streams);
            } else {
                a = d.hotLoad.next(d.rng);
            }
            op.effAddr = a & ~Addr{op.memSize - 1u};
            op.dst = fp_dst ? new_fp_dst() : new_int_dst(false);
        }
        if (!isFpReg(op.dst)) {
            d.recentLoadDst[d.loadDstHead] = op.dst;
            advance(d.loadDstHead, d.recentLoadDst);
        }
        break;
      }
      case OpClass::Store: {
        if (d.rng.chance(params_.storeAddrFromLoadFrac)) {
            // Address depends on a recent load result: resolves late.
            op.src1 = d.recentLoadDst[
                d.rng.range(d.recentLoadDst.size())];
        } else if (d.rng.chance(params_.storeAddrReadyFrac)) {
            // Stable base pointer: no in-flight producer, the store
            // resolves as soon as it issues (the common case).
            op.src1 = noReg;
        } else {
            // Recent index arithmetic: typically a short wait.
            op.src1 = pick_alu_src();
        }
        const bool fp_data = params_.fp && d.rng.chance(0.6);
        op.src3 = fp_data ? pick_fp_src() : pick_int_src();
        op.memSize = static_cast<std::uint8_t>(pick_size(fp_data));
        Addr a;
        if (d.rng.chance(params_.strideFrac) && !d.streams.empty()) {
            a = d.streams[d.streamRR].next();
            advance(d.streamRR, d.streams);
        } else {
            a = d.hotStore.next(d.rng);
        }
        op.effAddr = a & ~Addr{op.memSize - 1u};
        // Loads that re-read stored locations (shareProb, nearStore)
        // sample this buffer. Real consumers compute the address the
        // same way the store did, so they practically never issue
        // before a promptly-resolving store. Hence only stores whose
        // address is ready at rename enter the buffer, plus a trickle
        // of slower ones, so forwarding, rejection and genuine order
        // violations all occur, the last at the paper's
        // few-per-million rate.
        if (op.src1 == noReg || d.rng.chance(0.03))
            d.recentStores.push(op.effAddr, op.memSize);
        break;
      }
      case OpClass::IntAlu:
      case OpClass::IntMult:
      case OpClass::IntDiv:
        // Half the sources come from pure arithmetic chains; this
        // bounds how deeply index computation transitively depends on
        // outstanding loads.
        op.src1 = d.rng.chance(0.5) ? pick_alu_src() : pick_int_src();
        if (d.rng.chance(0.7))
            op.src2 = pick_int_src();
        op.dst = new_int_dst(true);
        break;
      case OpClass::FpAdd:
      case OpClass::FpMult:
      case OpClass::FpDiv:
        op.src1 = pick_fp_src();
        if (d.rng.chance(0.8))
            op.src2 = pick_fp_src();
        op.dst = new_fp_dst();
        break;
      case OpClass::Branch: {
        op.branch = slot.bkind;
        op.targetPc = codeBaseAddr + Addr{slot.targetSlot} * instBytes;
        switch (slot.bkind) {
          case BranchKind::Cond:
            op.src1 = pick_int_src();
            op.taken = st.branchStates[slot.branchId].nextOutcome();
            break;
          case BranchKind::Uncond:
            op.taken = true;
            break;
          case BranchKind::Call:
            op.taken = true;
            break;
          case BranchKind::Return: {
            op.taken = true;
            std::uint32_t ret_slot = 0;
            if (!d.callStack.empty()) {
                ret_slot = d.callStack.back();
            } else {
                warn("workload '%s': return with empty call stack",
                     params_.name.c_str());
            }
            op.targetPc = codeBaseAddr + Addr{ret_slot} * instBytes;
            break;
          }
          case BranchKind::NotABranch:
            panic("branch slot without branch kind");
        }
        break;
      }
      case OpClass::Nop:
        break;
    }

    op.nextPc = (op.isBranch() && op.taken) ? op.targetPc
                                            : op.pc + instBytes;

    // Advance the architectural control flow.
    if (op.isBranch() && op.taken) {
        if (op.branch == BranchKind::Call)
            d.callStack.push_back(d.curSlot + 1);
        if (op.branch == BranchKind::Return && !d.callStack.empty())
            d.callStack.pop_back();
        d.curSlot = static_cast<std::uint32_t>(
            (op.targetPc - codeBaseAddr) / instBytes);
    } else {
        ++d.curSlot;
    }
    if (d.curSlot >= st.slots.size())
        d.curSlot = 0;

    if (windowEnd_ - windowBase_ == window_.size()) {
        // Full: double the ring, re-placing each live op by its index.
        std::vector<MicroOp> grown(window_.size() * 2);
        const std::uint64_t mask = grown.size() - 1;
        for (std::uint64_t i = windowBase_; i < windowEnd_; ++i)
            grown[i & mask] = window_[i & windowMask_];
        window_.swap(grown);
        windowMask_ = mask;
    }
    window_[windowEnd_++ & windowMask_] = op;
}

const MicroOp &
SyntheticWorkload::op(std::uint64_t index)
{
    if (index < windowBase_)
        panic("workload '%s': index %llu already discarded (base %llu)",
              params_.name.c_str(),
              static_cast<unsigned long long>(index),
              static_cast<unsigned long long>(windowBase_));
    while (windowEnd_ <= index)
        generateNext();
    return window_[index & windowMask_];
}

MicroOp
SyntheticWorkload::wrongPathOp(Addr pc, std::uint64_t salt)
{
    const auto &st = *static_;
    // PCs outside the code region (predicted targets of wrong paths)
    // fold back into it; in-region PCs skip the division.
    std::uint64_t slot_idx = (pc - codeBaseAddr) / instBytes;
    if (slot_idx >= st.slots.size())
        slot_idx %= st.slots.size();
    const StaticSlot &slot = st.slots[slot_idx];
    std::uint64_t h = mixHash(pc ^ (salt * 0x9e3779b97f4a7c15ull));

    MicroOp op;
    op.pc = codeBaseAddr + slot_idx * instBytes;
    op.cls = slot.cls;

    auto next_h = [&]() { return h = mixHash(h); };
    auto rand_int_reg = [&]() {
        return static_cast<RegIndex>(1 + next_h() % 31);
    };
    auto rand_fp_reg = [&]() {
        return static_cast<RegIndex>(firstFpReg + next_h() % 32);
    };

    // Wrong-path memory operations target regions disjoint from the
    // architectural footprint (and from each other): real wrong-path
    // code computes addresses from stale but structured state and
    // essentially never aliases in-flight correct-path data at
    // quad-word granularity, whereas uniformly random in-footprint
    // addresses would manufacture hundreds of spurious order
    // violations per million instructions. The load region is kept
    // cache-sized so wrong-path loads mostly hit, as real ones do.
    const Addr footprint = Addr{1} << params_.footprintLog2;
    const Addr wp_load_base = dataBaseAddr + footprint;
    const Addr wp_load_mask = (Addr{1} << 17) - 1;
    const Addr wp_store_base = wp_load_base + (Addr{1} << 17);
    const Addr wp_store_mask = (Addr{1} << 22) - 1;

    switch (slot.cls) {
      case OpClass::Load:
        op.src1 = rand_int_reg();
        op.memSize = (next_h() & 1) ? 8 : 4;
        op.effAddr = wp_load_base +
            ((next_h() & wp_load_mask) & ~Addr{op.memSize - 1u});
        op.dst = (params_.fp && (next_h() & 1)) ? rand_fp_reg()
                                                : rand_int_reg();
        break;
      case OpClass::Store:
        op.src1 = rand_int_reg();
        op.src3 = rand_int_reg();
        op.memSize = (next_h() & 1) ? 8 : 4;
        op.effAddr = wp_store_base +
            ((next_h() & wp_store_mask) & ~Addr{op.memSize - 1u});
        break;
      case OpClass::IntAlu:
      case OpClass::IntMult:
      case OpClass::IntDiv:
        op.src1 = rand_int_reg();
        op.src2 = rand_int_reg();
        op.dst = rand_int_reg();
        break;
      case OpClass::FpAdd:
      case OpClass::FpMult:
      case OpClass::FpDiv:
        op.src1 = rand_fp_reg();
        op.src2 = rand_fp_reg();
        op.dst = rand_fp_reg();
        break;
      case OpClass::Branch:
        op.branch = slot.bkind;
        op.targetPc = codeBaseAddr + Addr{slot.targetSlot} * instBytes;
        if (slot.bkind == BranchKind::Cond) {
            op.src1 = rand_int_reg();
            op.taken = next_h() & 1;
        } else {
            op.taken = true;
            if (slot.bkind == BranchKind::Return) {
                // Unknown return target on a wrong path; land somewhere
                // plausible in the main region.
                op.targetPc = codeBaseAddr +
                    (next_h() % st.slots.size()) * instBytes;
            }
        }
        break;
      case OpClass::Nop:
        break;
    }

    op.nextPc = (op.isBranch() && op.taken) ? op.targetPc
                                            : op.pc + instBytes;
    return op;
}

void
SyntheticWorkload::discardBefore(std::uint64_t index)
{
    // Never past the generated end: reading resumes there.
    if (index > windowBase_)
        windowBase_ = std::min(index, windowEnd_);
}

} // namespace dmdc
