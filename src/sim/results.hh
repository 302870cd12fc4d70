/**
 * @file
 * Per-run result record, its run-cache JSON form, and aggregation
 * helpers (group means, ranges, normalization) used by the benchmark
 * harnesses.
 */

#ifndef DMDC_SIM_RESULTS_HH
#define DMDC_SIM_RESULTS_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.hh"
#include "energy/energy_model.hh"
#include "sim/machine_config.hh"

namespace dmdc
{

/** Everything a bench needs from one (benchmark, config, scheme) run. */
struct SimResult
{
    std::string benchmark;
    bool fp = false;
    unsigned configLevel = 2;
    /** Canonical registry name of the scheme that produced the run. */
    std::string scheme = "baseline";

    /**
     * False for a degraded slot: the run failed, timed out, or was
     * skipped. Identity fields above are filled in; every metric
     * below is meaningless. Aggregations
     * (rangeOver, findValidResult) skip invalid slots so a harness
     * renders "n/a" cells instead of poisoning group means.
     */
    bool valid = true;

    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double ipc = 0;

    // Store-side filtering (YLA / baseline searches).
    std::uint64_t lqSearches = 0;
    std::uint64_t lqSearchesFiltered = 0;
    std::uint64_t sqSearches = 0;
    std::uint64_t sqSearchesFiltered = 0;
    std::uint64_t ageTableReplays = 0;
    std::uint64_t loadsOlderThanAllStores = 0;
    std::uint64_t committedLoads = 0;
    std::uint64_t committedStores = 0;

    // DMDC statistics (zero for non-DMDC schemes).
    double safeStoreFrac = 0;
    double safeLoadFrac = 0;
    double checkingCycleFrac = 0;
    double windowInstrs = 0;
    double windowLoads = 0;
    double windowSafeLoads = 0;
    double windowSingleStoreFrac = 0;
    double windowMarkedEntries = 0;

    // Replays, absolute counts.
    std::uint64_t dmdcReplays = 0;
    std::uint64_t baselineReplays = 0;
    std::uint64_t trueViolations = 0;
    std::uint64_t trueReplays = 0;
    std::uint64_t falseAddrX = 0;
    std::uint64_t falseAddrY = 0;
    std::uint64_t falseHashBefore = 0;
    std::uint64_t falseHashX = 0;
    std::uint64_t falseHashY = 0;
    std::uint64_t falseOverflow = 0;

    EnergyBreakdown energy;

    // Ordering-oracle verdict (all zero unless the run had --check).
    /** checkModeName() of the mode the run executed under. */
    std::string checkMode = "off";
    std::uint64_t oracleLoadsChecked = 0;
    std::uint64_t oracleStaleCommits = 0;
    /** Local + external + bogus-claim forbidden outcomes. */
    std::uint64_t oracleForbidden = 0;
    /** Invalidations delivered by the scripted coherence agent. */
    std::uint64_t agentInvalidations = 0;

    /** Events per million committed instructions. */
    double
    perMInst(double count) const
    {
        return instructions
            ? count * 1e6 / static_cast<double>(instructions) : 0.0;
    }

    double
    falseReplays() const
    {
        return static_cast<double>(falseAddrX + falseAddrY +
                                   falseHashBefore + falseHashX +
                                   falseHashY + falseOverflow);
    }
};

/**
 * Write the persisted fields of @p r as one JSON object: the
 * run-cache payload's "result" value. One field table in results.cc
 * drives both this writer and readSimResultJson(); its order is the
 * payload's byte layout, so changing it needs a kCacheFormatVersion
 * bump. Identity-only and verdict fields (valid, the oracle counters)
 * are not persisted: only unchecked, successful runs are cached.
 */
void writeSimResultJson(std::ostream &os, const SimResult &r);

/**
 * Decode an object written by writeSimResultJson() into @p r. False
 * when any persisted field is missing, has the wrong JSON type, or
 * holds a number that is not one whole std::from_chars() token of the
 * field's type (so a signed token never lands in an unsigned field).
 * Fields are expected in the writer's order; any other order still
 * decodes, just with a scan per out-of-place field.
 */
bool readSimResultJson(const JsonValue &obj, SimResult &r);

/** min / mean / max of a sample set. */
struct Range
{
    double min = 0;
    double mean = 0;
    double max = 0;
    std::size_t n = 0;
};

/** Compute a Range over @p values (empty input yields zeros). */
Range makeRange(const std::vector<double> &values);

/**
 * Pick a per-result metric over @p results, optionally restricted to
 * one group (fp / int), and aggregate.
 */
template <typename Fn>
Range
rangeOver(const std::vector<SimResult> &results, bool fp_group, Fn &&fn)
{
    std::vector<double> v;
    for (const SimResult &r : results) {
        if (r.valid && r.fp == fp_group)
            v.push_back(fn(r));
    }
    return makeRange(v);
}

/**
 * The result for @p benchmark, or nullptr when it is absent or its
 * slot is invalid (failed, timed-out or skipped run).
 */
const SimResult *findValidResult(const std::vector<SimResult> &results,
                                 const std::string &benchmark);

} // namespace dmdc

#endif // DMDC_SIM_RESULTS_HH
