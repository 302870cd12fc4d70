/**
 * @file
 * Age table implementation.
 */

#include "lsq/age_table.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace dmdc
{

AgeTable::AgeTable(unsigned entries)
    : entries_(entries, invalidSeqNum)
{
    if (!isPowerOf2(entries))
        fatal("age table size must be a power of two");
    indexBits_ = floorLog2(entries);
}

unsigned
AgeTable::index(Addr addr) const
{
    return static_cast<unsigned>(
        foldXor(addr / quadWordBytes, indexBits_));
}

void
AgeTable::loadIssued(Addr addr, SeqNum seq)
{
    SeqNum &entry = entries_[index(addr)];
    entry = std::max(entry, seq);
}

SeqNum
AgeTable::lookup(Addr addr) const
{
    return entries_[index(addr)];
}

void
AgeTable::branchRecovery(SeqNum branch_seq)
{
    for (SeqNum &entry : entries_)
        entry = std::min(entry, branch_seq);
}

} // namespace dmdc
