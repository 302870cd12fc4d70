/**
 * @file
 * YLA register file implementation.
 */

#include "lsq/yla.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace dmdc
{

YlaFile::YlaFile(unsigned num_regs, unsigned grain_bytes)
    : regs_(num_regs, invalidSeqNum), grainBytes_(grain_bytes)
{
    if (!isPowerOf2(num_regs))
        fatal("YLA register count must be a power of two");
    if (!isPowerOf2(grain_bytes))
        fatal("YLA interleaving grain must be a power of two");
    grainShift_ = floorLog2(grain_bytes);
    reset();
}

unsigned
YlaFile::bank(Addr addr) const
{
    return static_cast<unsigned>((addr >> grainShift_) &
                                 (regs_.size() - 1));
}

void
YlaFile::loadIssued(Addr addr, SeqNum seq)
{
    SeqNum &reg = regs_[bank(addr)];
    reg = std::max(reg, seq);
}

SeqNum
YlaFile::lookup(Addr addr) const
{
    return regs_[bank(addr)];
}

void
YlaFile::branchRecovery(SeqNum branch_seq)
{
    for (SeqNum &reg : regs_)
        reg = std::min(reg, branch_seq);
}

void
YlaFile::reset()
{
    std::fill(regs_.begin(), regs_.end(), invalidSeqNum);
}

} // namespace dmdc
