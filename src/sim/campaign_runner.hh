/**
 * @file
 * Parallel campaign engine with an on-disk run cache and per-run
 * fault isolation.
 *
 * A campaign is an ordered list of independent (benchmark, config,
 * scheme) simulation runs. CampaignRunner fans the list out across
 * worker threads, which take runs from one shared queue, while
 * preserving the serial result ordering and bit-identical SimResults
 * (each Simulator owns all of its state, so runs are deterministic
 * functions of their SimOptions).
 *
 * Runs whose SimOptions are canonically fingerprintable (no attached
 * observers, no tweak callback) are additionally cached on disk as
 * CRC-checked JSON (.dmdc_cache/), so the Baseline campaigns that
 * nearly every bench binary re-simulates are near-free after the
 * first binary computes them; a repeat within one process is a disk
 * hit too. Campaigns running concurrently on one cache directory
 * simulate each key once: a run another live process has claimed
 * waits for that process's entry (per-key claims, cache_store.hh).
 *
 * Fault tolerance: each run executes inside an isolation boundary
 * that converts exceptions (structured RunErrors, watchdog timeouts,
 * injected chaos) into a RunOutcome instead of aborting the process.
 * Transient failures retry with bounded backoff; the campaign
 * completes every surviving run and reports a failure manifest in the
 * JSON journal. On-disk cache entries carry a CRC32 and are
 * quarantined (never trusted) when corrupt. An interrupted campaign
 * resumes by rerunning it against the same cache: completed runs are
 * disk hits, so only the failed and skipped ones simulate.
 */

#ifndef DMDC_SIM_CAMPAIGN_RUNNER_HH
#define DMDC_SIM_CAMPAIGN_RUNNER_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/cache_store.hh"
#include "sim/run_error.hh"
#include "sim/simulator.hh"

namespace dmdc
{

/** Worker threads when none are requested: hardware_concurrency(),
 *  clamped to at least 1. */
unsigned defaultWorkerCount();

/** Knobs of a CampaignRunner (see also bench --jobs / --no-cache). */
struct CampaignConfig
{
    /** Worker threads; 0 selects defaultWorkerCount(). */
    unsigned jobs = 0;
    /** Enable the on-disk run cache. */
    bool useCache = true;
    /** On-disk cache directory (created on demand). */
    std::string cacheDir = ".dmdc_cache";

    /**
     * Per-run wall-clock budget in milliseconds, applied to runs that
     * don't set their own SimOptions::timeoutMs. 0 = no deadline.
     */
    double timeoutMs = 0.0;
    /** Retries (beyond the first attempt) for transient failures. */
    unsigned maxRetries = 2;
    /** Stop launching new runs after the first failure. */
    bool failFast = false;

    /**
     * Caps on .dmdc_cache/quarantine/: corrupt cache entries are set
     * aside there for post-mortems, but chaos campaigns would grow it
     * without bound. Oldest entries are evicted first once either cap
     * is exceeded. 0 = unlimited.
     */
    std::size_t quarantineMaxEntries = 32;
    std::uint64_t quarantineMaxBytes = 8ull * 1024 * 1024;

    /**
     * Campaign-wide verification override (--check): materialized
     * into every run's SimOptions (that doesn't already ask for
     * checking itself) before classification. Checked runs always
     * simulate — they bypass the run cache in both directions — so
     * the oracle actually re-executes every pipeline.
     */
    CheckMode checkMode = CheckMode::Off;
    /** Campaign-wide coherence-agent spec (--agent), same contract. */
    std::string coherenceAgent;
};

/** Execution accounting of the most recent campaign. */
struct CampaignStats
{
    std::size_t runs = 0;        ///< total runs requested
    std::size_t simulated = 0;   ///< actually executed simulations
    std::size_t diskHits = 0;    ///< served from .dmdc_cache/ JSON
    std::size_t uncacheable = 0; ///< observers/tweak runs (always run)
    std::size_t failed = 0;      ///< terminal non-timeout failures
    std::size_t timedOut = 0;    ///< watchdog-terminated runs
    std::size_t skipped = 0;     ///< not executed (fail-fast)
    std::size_t retried = 0;     ///< runs that needed > 1 attempt
    std::size_t quarantined = 0; ///< corrupt cache entries set aside
    std::size_t quarantineEvicted = 0; ///< quarantined files aged out
    double wallMs = 0.0;         ///< campaign wall-clock, milliseconds

    double
    simsPerSec() const
    {
        return wallMs > 0.0
            ? static_cast<double>(runs) / (wallMs / 1000.0) : 0.0;
    }
};

/** Results plus the per-run execution record of one campaign. */
struct CampaignResult
{
    /** Same order as the requested runs; failed slots are
     *  default-constructed. */
    std::vector<SimResult> results;
    /** Parallel to results. */
    std::vector<RunOutcome> outcomes;

    /** Every run succeeded. */
    bool
    allOk() const
    {
        return degradedRuns() == 0;
    }

    /** Runs that failed, timed out, or were skipped. */
    std::size_t
    degradedRuns() const
    {
        std::size_t n = 0;
        for (const RunOutcome &o : outcomes)
            n += !o.ok();
        return n;
    }
};

/**
 * Runs campaigns. Instances are independent; the process-wide
 * instance behind runCampaignChecked() is reachable via global().
 */
class CampaignRunner
{
  public:
    explicit CampaignRunner(CampaignConfig config = {});

    /**
     * Execute every run in @p runs and report results plus per-run
     * RunOutcomes in the same order. Identical to running
     * runSimulation() serially per element, but parallel and
     * cached; the caller decides what a failed run means. (The
     * former run() entry point, which fatal()ed on any failure, is
     * gone — every harness renders degraded cells from the
     * RunOutcomes instead of dying.)
     */
    CampaignResult runChecked(const std::vector<SimOptions> &runs);

    const CampaignConfig &config() const { return config_; }

    /** Accounting of the most recent run() call. */
    const CampaignStats &lastStats() const { return lastStats_; }

    /** The process-wide runner used by runCampaignChecked(). */
    static CampaignRunner &global();

    /**
     * Replace the process-wide runner's configuration. Call before
     * the first campaign (benches do this while parsing argv).
     */
    static void configureGlobal(const CampaignConfig &config);

    /** The run cache (see cache_store.hh). */
    CacheStore &diskStore() { return *diskStore_; }

  private:
    /** Disk-cache probe result. */
    enum class CacheLoad { Hit, Miss, Corrupt };

    CacheLoad loadFromDisk(const std::string &key, SimResult &out);
    void storeToDisk(const std::string &key, const SimResult &r);

    CampaignConfig config_;
    CampaignStats lastStats_;

    /** Owns the on-disk layout: CRC framing, quarantine, claims. The
     *  runner keeps the SimResult <-> JSON translation
     *  and key validation. */
    std::unique_ptr<CacheStore> diskStore_;
};

/**
 * True if @p opt can be fingerprinted: runs carrying observers or a
 * tweak callback have effects/inputs outside SimOptions and are never
 * cached.
 */
bool cacheableOptions(const SimOptions &opt);

/**
 * Stable identity of one run: every behavior-affecting SimOptions
 * field, spelled "bench=…|config=…|scheme=…|…|queue=…", with
 * "|custom=1" appended when observers or a tweak are attached. Names
 * run spans, keys the fault injector, and is the tail of cacheKey().
 */
std::string runIdentity(const SimOptions &opt);

/**
 * Journal identity of one run ("benchmark|scheme|config"): the
 * fingerprint of the simulator's per-run fault sites and the last
 * tie-breaker of the run queue's order.
 */
std::string journalIdentity(const std::string &benchmark,
                            const std::string &scheme, unsigned config);

/**
 * Canonical fingerprint of every behavior-affecting SimOptions field:
 * "dmdc-cache-v<version>|src=<policySourceFingerprint()>|" followed by
 * runIdentity(opt). Two runs with equal keys produce bit-identical
 * SimResults. Precondition: cacheableOptions(opt).
 */
std::string cacheKey(const SimOptions &opt);

/**
 * Hash of the policy registry's version string (API version + every
 * scheme@revision): the simulator-behavior half of every cache key,
 * and the policy revision `dmdc_sim --version` prints.
 */
const std::string &policySourceFingerprint();

// ---- run queue order -------------------------------------------------

/** What longest-processing-time-first (LPT) ordering knows of a run. */
struct LptItem
{
    double cost = 0.0;      ///< instruction budget (warmup + measured)
    std::uint64_t hash = 0; ///< hashBytes(identity): first tie-breaker
    std::string identity;   ///< journal identity: last tie-breaker
};

/** The LptItem of one run. Simulation cost is linear in the
 *  instruction budget, the best machine-independent estimate there is
 *  before running. */
LptItem lptItem(const SimOptions &opt);

/**
 * LPT order: costlier first, then by (hash, identity), so the order
 * is a pure function of the items. A multi-worker CampaignRunner
 * queues its runs in this order.
 */
bool lptBefore(const LptItem &a, const LptItem &b);

// ---- machine-readable campaign journal (bench --json) ----

/** Journal file format version (header "version" field). */
constexpr unsigned kJournalFormatVersion = 4;

/**
 * One "results" record of a journal, with numeric fields kept as the
 * JSON tokens the journal writes.
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

/** Canonical order of a deterministic journal's records. */
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

/**
 * Record every subsequent campaign run into an in-process journal
 * flushed to @p path (JSON) at flushCampaignJournal() / process exit.
 * Failed runs appear with their status, error category and attempt
 * count — the journal is the campaign's failure manifest.
 *
 * @p deterministic strips every nondeterministic field (build commit,
 * timestamps, wall-clock, cache provenance, attempt counts) and sorts
 * records canonically, so two campaigns over the same run list —
 * interrupted + rerun vs. uninterrupted — produce bit-identical files.
 */
void setCampaignJournal(const std::string &path,
                        bool deterministic = false);

/** Write the journal now (no-op when no path is set). */
void flushCampaignJournal();

// ---- cooperative interruption ---------------------------------------

/**
 * Request a graceful campaign interruption (async-signal-safe; called
 * from the worker's SIGINT/SIGTERM handler). Runs not yet started
 * complete as Skipped("interrupted by signal"), in-flight runs finish
 * and are cached normally, and the campaign returns with its journal
 * consistent — rerunning the same command re-simulates only what the
 * interrupt skipped.
 */
void requestCampaignInterrupt();

/** Has requestCampaignInterrupt() been called in this process? */
bool campaignInterruptRequested();

/**
 * Arm the two-stage SIGINT/SIGTERM protocol of a campaign process:
 * the first signal requests a campaign interrupt (pending runs skip,
 * the in-flight run finishes and is cached, the journal flushes, the
 * process exits kExitInterrupted); a second signal _exits immediately
 * with the conventional 128+sig status.
 */
void installWorkerSignalHandlers();

} // namespace dmdc

#endif // DMDC_SIM_CAMPAIGN_RUNNER_HH
