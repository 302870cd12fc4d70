/**
 * @file
 * The pinned reference table: the simulated results of every run any
 * seed can draw. Simulated statistics are deterministic, so a timed
 * run counts as correct only when every pinned column matches exactly.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace perfbench
{

/** "benchmark|config|scheme|warmup|run": the table's row key. */
std::string runKey(const dmdc::SimOptions &opt);

/**
 * Pinned columns of one run, in table order: warm-up committed
 * instructions (not in SimResult; the traced rebuild counts it), then
 * measured committed instructions, cycles, every replay class, and
 * the LQ-functionality energy printed with 17 significant digits.
 */
std::vector<std::string> pinnedValues(const dmdc::SimResult &r,
                                      std::uint64_t warmup_committed);

class ReferenceTable
{
  public:
    /** Column names after the five key columns. */
    static const std::vector<std::string> &valueColumns();

    /** Read a table written by format(); false with @p err set on a
     *  missing file or a malformed line. */
    bool load(const std::string &path, std::string &err);

    void add(const dmdc::SimOptions &opt,
             const std::vector<std::string> &values);

    /** Tab-separated text, header first, rows sorted by key. */
    std::string format() const;

    /** Empty when @p r matches its row, else what differs. */
    std::string check(const dmdc::SimOptions &opt,
                      const dmdc::SimResult &r) const;

    /** Committed instructions of a run, warm-up plus measured; 0 when
     *  the run has no row. */
    std::uint64_t totalCommitted(const dmdc::SimOptions &opt) const;

    std::size_t size() const { return rows_.size(); }

  private:
    std::map<std::string, std::vector<std::string>> rows_;
};

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
