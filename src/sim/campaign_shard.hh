/**
 * @file
 * Campaign sharding and journal merging.
 *
 * One campaign — a fingerprinted ordered work list (see
 * campaignFingerprint()) — can be executed by N cooperating
 * processes. Each process is handed a ShardSpec (`--shard
 * =i/N`), deterministically derives its slice of the work list with
 * shardAssignment(), runs it through the ordinary runChecked()
 * machinery against the shared concurrent-writer-safe `.dmdc_cache/`,
 * and flushes a per-shard deterministic journal. mergeShardJournals()
 * then validates that the shard journals belong together (same
 * campaign fingerprint, same registry commit, disjoint-and-complete
 * run sets) and re-serializes them in canonical order — the merged
 * file is bit-identical to the journal an uninterrupted single-process
 * run would have written.
 *
 * The partition function groups runs by journal identity
 * (benchmark|scheme|config), estimates each group's cost from its
 * instruction budget, and assigns groups to shards greedily
 * (longest-processing-time first, ties broken by a stable hash of the
 * identity). Grouping by journal identity — not full run identity —
 * guarantees the merger's disjointness invariant even when a harness
 * runs the same (benchmark, scheme, config) triple under different
 * hidden knobs.
 */

#ifndef DMDC_SIM_CAMPAIGN_SHARD_HH
#define DMDC_SIM_CAMPAIGN_SHARD_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/run_error.hh"
#include "sim/simulator.hh"

namespace dmdc
{

/** Journal file format version (header "version" field). */
constexpr unsigned kJournalFormatVersion = 3;

/** Which slice of a campaign this process executes. */
struct ShardSpec
{
    unsigned index = 0; ///< 0-based shard id
    unsigned count = 1; ///< total cooperating shard processes

    /** True when the campaign is actually split (count > 1). */
    bool active() const { return count > 1; }
};

/**
 * Parse "i/N" (e.g. "0/2") into @p out. Requires N >= 1 and i < N.
 * On failure returns false and describes the problem in @p err.
 */
bool parseShardSpec(const std::string &text, ShardSpec &out,
                    std::string &err);

/** "i/N" spelling of @p spec. */
std::string shardSpecName(const ShardSpec &spec);

/**
 * Stable identity of one run: every behavior-affecting SimOptions
 * field (attached observers / tweaks are flagged, not hashed). Names
 * run spans and keys the fault injector; unlike the cache key it does
 * not include the policy-registry source fingerprint.
 */
std::string runIdentity(const SimOptions &opt);

/**
 * Order-sensitive fingerprint over a campaign's full run list; shard
 * journals carry it so the merger rejects slices of another campaign.
 */
std::string campaignFingerprint(const std::vector<SimOptions> &runs);

/**
 * Deterministically assign each run in @p runs to one of
 * @p shardCount shards. Returns a vector parallel to @p runs holding
 * the shard index of each run.
 *
 * Properties:
 *  - pure function of (run list, shardCount): every shard process
 *    computes the same assignment independently;
 *  - runs with equal journal identity (benchmark|scheme|config)
 *    land on the same shard;
 *  - balanced by estimated cost (warmup + measured instructions)
 *    using LPT greedy assignment, so shard wall-clocks are within one
 *    group of each other.
 */
std::vector<unsigned> shardAssignment(const std::vector<SimOptions> &runs,
                                      unsigned shardCount);

/**
 * Journal identity of one run ("benchmark|scheme|config"): the
 * co-location key shared by the shard partitioner and the run
 * scheduler.
 */
std::string journalIdentity(const std::string &benchmark,
                            const std::string &scheme, unsigned config);

// ---- journal model (shared by the runner's writer and the merger) ----

/**
 * One "results" record of a deterministic journal, with numeric
 * fields kept as raw JSON tokens so re-serialization is byte-exact.
 */
struct JournalEntry
{
    std::string benchmark;
    std::string scheme;
    unsigned config = 2;
    RunStatus status = RunStatus::Ok;
    std::string ipcToken = "0";    ///< raw JSON number (ok records)
    std::string cyclesToken = "0"; ///< raw JSON number (ok records)
    std::string category;          ///< failure records only
    std::string error;             ///< failure records only, unescaped
};

/** Canonical journal order (matches the runner's deterministic sort). */
bool journalEntryLess(const JournalEntry &a, const JournalEntry &b);

/**
 * Serialize one journal record ("\n  {...}"): identity, status, then
 * ipc/cycles or category/error. Deterministic journals write exactly
 * that; the non-deterministic journal passes its run-metadata fields,
 * already serialized as ",\"key\":value..." text, in @p extra, which
 * lands just before the closing brace. String fields go through the
 * journals' lossy escaper (control characters become spaces).
 */
void writeJournalEntry(std::ostream &os, const JournalEntry &e,
                       const std::string &extra = {});

/** A parsed journal file (per-shard or merged/serial). */
struct ShardJournal
{
    unsigned version = 0;
    std::string commit;

    // Shard header fields; present only in per-shard journals.
    bool sharded = false;
    std::string campaign;        ///< campaign fingerprint (hex)
    unsigned shardIndex = 0;
    unsigned shardCount = 1;
    std::uint64_t runsTotal = 0; ///< full-campaign run count

    std::vector<JournalEntry> entries;
};

/** Parse journal JSON text; false + @p err on malformed input. */
bool parseShardJournal(const std::string &text, ShardJournal &out,
                       std::string &err);

/** Read and parse the journal file at @p path. */
bool loadShardJournal(const std::string &path, ShardJournal &out,
                      std::string &err);

/**
 * Validate that @p shards are the complete, disjoint shard set of one
 * campaign and merge them into @p out (canonical order, no shard
 * header). Rejects: non-shard journals, mixed version/commit/
 * fingerprint/shard-count, duplicate or missing shard indices,
 * overlapping journal identities across shards, and record counts
 * that don't sum to the campaign's run total.
 */
bool mergeShardJournals(const std::vector<ShardJournal> &shards,
                        ShardJournal &out, std::string &err);

/**
 * Serialize @p journal exactly as flushCampaignJournal() writes a
 * deterministic single-process journal (records sorted canonically).
 */
void writeMergedJournal(std::ostream &os, const ShardJournal &journal);

} // namespace dmdc

#endif // DMDC_SIM_CAMPAIGN_SHARD_HH
