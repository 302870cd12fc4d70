/**
 * @file
 * Dynamic micro-operation record — the unit of work the pipeline
 * consumes. Timing-only: micro-ops carry dependence and address
 * information but no data values.
 */

#ifndef DMDC_TRACE_MICROOP_HH
#define DMDC_TRACE_MICROOP_HH

#include <cstdint>

#include "common/types.hh"

namespace dmdc
{

/** Functional classes, mirroring SimpleScalar's FU classes. */
enum class OpClass : std::uint8_t
{
    IntAlu,
    IntMult,
    IntDiv,
    FpAdd,
    FpMult,
    FpDiv,
    Load,
    Store,
    Branch,
    Nop,
};

/** Control-flow subtypes for Branch micro-ops. */
enum class BranchKind : std::uint8_t
{
    NotABranch,
    Cond,      ///< conditional direct branch
    Uncond,    ///< unconditional direct jump
    Call,      ///< direct call (pushes return address)
    Return,    ///< indirect return (pops return address)
};

/** True for classes executed on floating-point units. */
inline bool
isFpClass(OpClass c)
{
    return c == OpClass::FpAdd || c == OpClass::FpMult || c == OpClass::FpDiv;
}

/** True for memory classes. */
inline bool
isMemClass(OpClass c)
{
    return c == OpClass::Load || c == OpClass::Store;
}

/** Architectural register index; 0..31 integer, 32..63 floating point. */
using RegIndex = std::int16_t;

/** Sentinel for "no register". */
constexpr RegIndex noReg = -1;

/** Number of architectural registers (INT + FP). */
constexpr unsigned numArchRegs = 64;

/** First floating-point architectural register index. */
constexpr RegIndex firstFpReg = 32;

/** True if @p r names a floating-point architectural register. */
inline bool
isFpReg(RegIndex r)
{
    return r >= firstFpReg;
}

/**
 * One dynamic micro-op as produced by a workload.
 *
 * For memory ops, src1/src2 are the address sources and src3 (stores
 * only) is the data source; @c effAddr / @c memSize describe the access.
 * For branches, @c taken / @c targetPc give the architectural outcome
 * and @c nextPc the architectural successor.
 */
struct MicroOp
{
    // The narrow fields sit together after pc so they pack into 16
    // bytes: 48 per op instead of 56, in the trace window and in
    // every DynInst.
    Addr pc = 0;
    OpClass cls = OpClass::Nop;
    std::uint8_t memSize = 0;     ///< access width in bytes (1/2/4/8)

    RegIndex dst = noReg;
    RegIndex src1 = noReg;
    RegIndex src2 = noReg;
    RegIndex src3 = noReg;   ///< store data source

    BranchKind branch = BranchKind::NotABranch;
    bool taken = false;

    Addr effAddr = invalidAddr;
    Addr targetPc = 0;
    Addr nextPc = 0;              ///< architectural successor PC

    bool isLoad() const { return cls == OpClass::Load; }
    bool isStore() const { return cls == OpClass::Store; }
    bool isMem() const { return isMemClass(cls); }
    bool isBranch() const { return cls == OpClass::Branch; }
    bool isFp() const { return isFpClass(cls); }
};

static_assert(sizeof(MicroOp) == 48, "MicroOp narrow fields must pack");

} // namespace dmdc

#endif // DMDC_TRACE_MICROOP_HH
