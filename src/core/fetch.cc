/**
 * @file
 * Fetch stage implementation.
 */

#include "core/fetch.hh"

#include <algorithm>

#include "common/bitutils.hh"

namespace dmdc
{

FetchStage::FetchStage(const FetchParams &params, Workload &workload,
                       BranchPredictor &predictor, MemoryHierarchy &mem,
                       ObjectPool<DynInst> &pool)
    : params_(params), workload_(workload), predictor_(predictor),
      mem_(mem), pool_(pool),
      lineShift_(floorLog2(mem_.l1i().lineBytes()))
{
    fetchPc_ = workload_.op(0).pc;
}

void
FetchStage::regStats(StatGroup &parent)
{
    stats_.regCounter("fetched_total", &fetchedTotal);
    stats_.regCounter("fetched_wrong_path", &fetchedWrongPath);
    stats_.regCounter("icache_stall_cycles", &icacheStallCycles);
    parent.addChild(&stats_);
}

DynInst *
FetchStage::makeInst(const MicroOp &op, bool wrong_path, Cycle now)
{
    DynInst *inst = pool_.acquire();
    inst->op = op;
    inst->seq = ++seqCounter_;
    inst->wrongPath = wrong_path;
    inst->traceIndex = wrong_path ? ~std::uint64_t{0} : nextTraceIndex_;
    inst->fetchReadyCycle = now + params_.fetchToDispatch;
    return inst;
}

void
FetchStage::tick(Cycle now, RingBuffer<DynInst *> &out,
                 std::size_t max_count)
{
    if (now < stallUntil_) {
        ++icacheStallCycles;
        return;
    }

    const std::size_t budget =
        std::min<std::size_t>(params_.fetchWidth, max_count);

    for (std::size_t n = 0; n < budget; ++n) {
        // One I-cache access per line crossing.
        const Addr line = fetchPc_ >> lineShift_;
        if (line != lastFetchLine_) {
            const unsigned lat = mem_.accessInst(fetchPc_);
            lastFetchLine_ = line;
            if (lat > mem_.l1i().latency()) {
                stallUntil_ = now + lat;
                return;
            }
        }

        MicroOp op;
        const bool wrong_path = wrongPathMode_;
        if (!wrongPathMode_)
            op = workload_.op(nextTraceIndex_);
        else
            op = workload_.wrongPathOp(fetchPc_, wrongPathSalt_++);

        DynInst *inst = makeInst(op, wrong_path, now);
        ++fetchedTotal;
        if (wrong_path)
            ++fetchedWrongPath;

        Addr next_pc = fetchPc_ + 4;
        bool taken = false;
        if (op.isBranch()) {
            inst->pred = predictor_.predict(op.pc, op.branch,
                                            op.pc + 4);
            taken = inst->pred.taken;
            if (taken)
                next_pc = inst->pred.target;
            if (!wrong_path) {
                ++nextTraceIndex_;
                if (next_pc != op.nextPc)
                    wrongPathMode_ = true;
            }
        } else if (!wrong_path) {
            ++nextTraceIndex_;
        }

        fetchPc_ = next_pc;
        out.push_back(inst);

        // Fetch does not continue past a predicted-taken branch in the
        // same cycle.
        if (taken)
            break;
    }
}

void
FetchStage::redirectToTrace(std::uint64_t trace_index, Cycle resume)
{
    wrongPathMode_ = false;
    nextTraceIndex_ = trace_index;
    fetchPc_ = workload_.op(trace_index).pc;
    stallUntil_ = resume;
    lastFetchLine_ = invalidAddr;
}

void
FetchStage::redirectWrongPath(Addr pc, Cycle resume)
{
    wrongPathMode_ = true;
    fetchPc_ = pc;
    stallUntil_ = resume;
    lastFetchLine_ = invalidAddr;
}

} // namespace dmdc
