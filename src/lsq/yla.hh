/**
 * @file
 * YLA (Youngest issued Load Age) register file — the paper's Section 3
 * age-based filter. A bank of registers interleaved by address records
 * the age of the youngest issued load per bank; a resolving store whose
 * age is younger than the bank's record provably has no premature
 * younger load and can skip the LQ search.
 */

#ifndef DMDC_LSQ_YLA_HH
#define DMDC_LSQ_YLA_HH

#include <vector>

#include "common/types.hh"

namespace dmdc
{

/** A bank of address-interleaved YLA registers. */
class YlaFile
{
  public:
    /**
     * @param num_regs number of registers (power of two)
     * @param grain_bytes interleaving granularity: 8 for quad-word
     *        interleaving, the cache line size for line interleaving
     *        (1 register ignores the address entirely)
     */
    YlaFile(unsigned num_regs, unsigned grain_bytes);

    /** A load to @p addr with age @p seq has issued (any path). */
    void loadIssued(Addr addr, SeqNum seq);

    /** Youngest issued load age recorded for @p addr's bank. */
    SeqNum lookup(Addr addr) const;

    /**
     * YLA filter check for a resolving store: true (safe) iff no
     * younger load has issued in the store's bank.
     */
    bool storeSafe(Addr addr, SeqNum store_seq) const
    {
        return lookup(addr) < store_seq;
    }

    /**
     * Branch-misprediction recovery: clamp every register to the
     * branch's age (wrong-path loads may have corrupted the contents;
     * over-approximation is safe, only filtering power is lost).
     */
    void branchRecovery(SeqNum branch_seq);

    /** Clear all registers (simulation reset). */
    void reset();

    unsigned numRegs() const
    {
        return static_cast<unsigned>(regs_.size());
    }
    unsigned grainBytes() const { return grainBytes_; }

  private:
    unsigned bank(Addr addr) const;

    std::vector<SeqNum> regs_;
    unsigned grainBytes_;
    unsigned grainShift_;   ///< log2(grainBytes_)
};

} // namespace dmdc

#endif // DMDC_LSQ_YLA_HH
