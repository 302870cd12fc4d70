/**
 * @file
 * Checking table implementation.
 */

#include "lsq/checking_table.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace dmdc
{

CheckingTable::CheckingTable(unsigned entries)
    : entries_(entries), occupied_((entries + 63) / 64)
{
    if (!isPowerOf2(entries))
        fatal("checking table size must be a power of two");
    indexBits_ = floorLog2(entries);
}

unsigned
CheckingTable::index(Addr addr) const
{
    return static_cast<unsigned>(
        foldXor(addr / quadWordBytes, indexBits_));
}

CheckingTable::Entry &
CheckingTable::touch(Addr addr)
{
    Entry &e = entries_[index(addr)];
    if (e.epoch != epoch_) {
        e.epoch = epoch_;
        e.wrtBits = 0;
        e.invBits = 0;
        e.ghosts.clear();
    }
    return e;
}

std::uint8_t
CheckingTable::chunkMask(Addr addr, unsigned size)
{
    // The quad word is split into four 2-byte chunks; accesses are
    // size-aligned so they never straddle the quad word.
    const unsigned first = static_cast<unsigned>(addr & 7) / 2;
    unsigned last = static_cast<unsigned>((addr & 7) + size - 1) / 2;
    if (last > 3)
        last = 3;
    std::uint8_t m = 0;
    for (unsigned c = first; c <= last; ++c)
        m |= static_cast<std::uint8_t>(1u << c);
    return m;
}

void
CheckingTable::markStore(Addr addr, unsigned size,
                         const GhostStoreRecord &ghost)
{
    Entry &e = touch(addr);
    e.wrtBits |= chunkMask(addr, size);
    e.ghosts.push_back(ghost);
    setOccupied(index(addr));
}

void
CheckingTable::markInvalidation(Addr line_addr, unsigned line_bytes)
{
    const Addr base = line_addr & ~Addr{line_bytes - 1};
    for (Addr qw = base; qw < base + line_bytes; qw += quadWordBytes) {
        Entry &e = touch(qw);
        e.invBits = 0xf;
        setOccupied(index(qw));
    }
}

TableCheck
CheckingTable::checkLoad(Addr addr, unsigned size)
{
    TableCheck result;
    // Pre-filter: an unoccupied entry cannot hit, and skipping its
    // lazy epoch reset is invisible (the next marking touch()es it).
    if (!occupied(index(addr))) {
        static const std::vector<GhostStoreRecord> no_ghosts;
        result.ghosts = &no_ghosts;
        return result;
    }
    Entry &e = touch(addr);
    const std::uint8_t m = chunkMask(addr, size);
    result.wrtHit = (e.wrtBits & m) != 0;
    result.invHit = (e.invBits & m) != 0;
    result.ghosts = &e.ghosts;
    if (!result.wrtHit && result.invHit) {
        // INV-only hit: promote so a second load to this location
        // replays (write-serialization rule of Sec. 4.3).
        e.wrtBits |= m;
        e.invBits &= static_cast<std::uint8_t>(~m);
    }
    return result;
}

void
CheckingTable::clear()
{
    ++epoch_;
    std::fill(occupied_.begin(), occupied_.end(), 0);
}

} // namespace dmdc
