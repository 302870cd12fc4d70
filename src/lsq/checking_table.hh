/**
 * @file
 * The DMDC checking table: a small hash table indexed by quad-word
 * address. Unsafe stores mark entries at commit (WRT bit + 4-bit
 * sub-quad-word bitmap); loads committing inside a checking window
 * index it, and a marked overlapping entry triggers a replay. External
 * invalidations mark the INV bit instead (Sec. 4.3).
 *
 * Each entry additionally carries simulator-only ghost records of the
 * marking stores so replays can be classified (Tables 3/5); ghost state
 * costs no modeled energy.
 */

#ifndef DMDC_LSQ_CHECKING_TABLE_HH
#define DMDC_LSQ_CHECKING_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace dmdc
{

/** Ghost (simulation-only) record of a store that marked an entry. */
struct GhostStoreRecord
{
    SeqNum seq = invalidSeqNum;
    Addr addr = invalidAddr;
    unsigned size = 0;
    SeqNum windowEnd = invalidSeqNum;  ///< YLA captured at resolve
    Cycle resolveCycle = 0;
};

/** Result of a load's commit-time table check. */
struct TableCheck
{
    bool wrtHit = false;   ///< overlapping WRT bits set: replay
    bool invHit = false;   ///< overlapping INV bits set (pre-promotion)
    const std::vector<GhostStoreRecord> *ghosts = nullptr;
};

/** The checking table. */
class CheckingTable
{
  public:
    /** @param entries table size (power of two). */
    explicit CheckingTable(unsigned entries);

    /** An unsafe store marks its entry at commit. */
    void markStore(Addr addr, unsigned size,
                   const GhostStoreRecord &ghost);

    /**
     * An external invalidation marks the INV bit of every entry the
     * cache line maps to.
     */
    void markInvalidation(Addr line_addr, unsigned line_bytes);

    /**
     * Commit-time check of a load. Per the paper, an INV-only hit does
     * not replay but promotes the entry's overlapping bits to WRT so a
     * second same-location load does.
     */
    TableCheck checkLoad(Addr addr, unsigned size);

    /** End of checking window: clean the whole table (O(1) epoch). */
    void clear();

    unsigned numEntries() const
    {
        return static_cast<unsigned>(entries_.size());
    }

  private:
    struct Entry
    {
        std::uint64_t epoch = 0;
        std::uint8_t wrtBits = 0;   ///< 4 bits, 2-byte chunks
        std::uint8_t invBits = 0;
        std::vector<GhostStoreRecord> ghosts;
    };

    unsigned index(Addr addr) const;
    Entry &touch(Addr addr);
    static std::uint8_t chunkMask(Addr addr, unsigned size);

    bool
    occupied(unsigned idx) const
    {
        return (occupied_[idx >> 6] >> (idx & 63)) & 1u;
    }
    void
    setOccupied(unsigned idx)
    {
        occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    }

    std::vector<Entry> entries_;
    /**
     * Occupancy bitmap, one bit per entry: set iff the entry is
     * current-epoch and has any WRT/INV bit marked. Marked bits never
     * clear before the epoch does (INV->WRT promotion keeps the entry
     * nonzero), so the common-case load probe of an unmarked entry is
     * a single word test instead of an Entry access.
     */
    std::vector<std::uint64_t> occupied_;
    unsigned indexBits_;
    std::uint64_t epoch_ = 1;
};

} // namespace dmdc

#endif // DMDC_LSQ_CHECKING_TABLE_HH
