/**
 * @file
 * Age table — the related design of Garg et al., "Substituting
 * Associative Load Queue with Simple Hash Table in Out-of-Order
 * Microprocessors" (ISLPED 2006), which the paper's Sec. 7 compares
 * DMDC against. A single hash table records, per entry, the youngest
 * issued load age hashing there; a resolving store indexes it and
 * replays everything younger when the recorded age is younger than
 * the store. Unlike DMDC it keeps age and address information fused
 * in one (wider) table and checks at execute time.
 */

#ifndef DMDC_LSQ_AGE_TABLE_HH
#define DMDC_LSQ_AGE_TABLE_HH

#include <vector>

#include "common/types.hh"

namespace dmdc
{

/** The age table. */
class AgeTable
{
  public:
    /** @param entries table size (power of two). */
    explicit AgeTable(unsigned entries);

    /** A load to @p addr with age @p seq obtained its value. */
    void loadIssued(Addr addr, SeqNum seq);

    /** Youngest issued load age recorded for @p addr's entry. */
    SeqNum lookup(Addr addr) const;

    /**
     * Store-side check: true iff some (possibly aliasing) younger
     * load has issued — the store must trigger a replay.
     */
    bool
    storeNeedsReplay(Addr addr, SeqNum store_seq) const
    {
        return lookup(addr) > store_seq;
    }

    /**
     * Branch-misprediction recovery: clamp every entry to the branch
     * age (squashed wrong-path loads would otherwise pollute the
     * table and multiply false replays).
     */
    void branchRecovery(SeqNum branch_seq);

    unsigned numEntries() const
    {
        return static_cast<unsigned>(entries_.size());
    }

  private:
    unsigned index(Addr addr) const;

    std::vector<SeqNum> entries_;
    unsigned indexBits_;
};

} // namespace dmdc

#endif // DMDC_LSQ_AGE_TABLE_HH
