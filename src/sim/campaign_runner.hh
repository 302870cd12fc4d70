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
 * functions of their SimOptions). A run is its SimOptions: its
 * wall-clock budget (timeoutMs) and its verification (check,
 * coherenceAgent) ride there, and CampaignConfig only says how the
 * campaign executes.
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
 * completes every surviving run. On-disk cache entries carry a CRC32
 * and are quarantined (never trusted) when corrupt. An interrupted
 * campaign resumes by rerunning it against the same cache: completed
 * runs are disk hits, so only the failed and skipped ones simulate.
 *
 * The JSON journal (CampaignConfig::journalPath) is a view of the
 * CampaignResult, written once at the end of runChecked(): one row per
 * run in run-list order, named by runIdentity(), whose "result" is the
 * run-cache payload's result object (writeSimResultJson). Failed,
 * timed-out and skipped runs appear with their status, category and
 * error, so the journal is also the campaign's failure manifest.
 */

#ifndef DMDC_SIM_CAMPAIGN_RUNNER_HH
#define DMDC_SIM_CAMPAIGN_RUNNER_HH

#include <cstdint>
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

/**
 * Knobs of a CampaignRunner (see also bench --jobs / --no-cache):
 * how a campaign executes, never what a run is. Everything about one
 * run, its --timeout and --check included, is in its SimOptions.
 */
struct CampaignConfig
{
    /** Worker threads; 0 selects defaultWorkerCount(). */
    unsigned jobs = 0;
    /** Enable the on-disk run cache. */
    bool useCache = true;
    /** On-disk cache directory (created on demand). */
    std::string cacheDir = ".dmdc_cache";

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

    /** Campaign journal (--json; see the file comment): runChecked()
     *  writes one row per run here before it returns. Empty = none. */
    std::string journalPath;
    /** Omit the journal's nondeterministic fields (build commit,
     *  timestamp, attempts, wall clock, throughput, cache provenance),
     *  so every campaign over the same run list writes the same
     *  bytes. */
    bool journalDeterministic = false;
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
    /** Same order as the requested runs. A degraded slot carries only
     *  its run's benchmark, scheme, config and fp, with valid=false,
     *  so tables can label its row while aggregates skip it. */
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

/** Runs campaigns. Instances are independent. */
class CampaignRunner
{
  public:
    explicit CampaignRunner(CampaignConfig config = {});

    /**
     * Execute every run in @p runs and report results plus per-run
     * RunOutcomes in the same order. Identical to running
     * runSimulation() serially per element, but parallel and
     * cached; the caller decides what a failed run means (every
     * harness renders its degraded slots as n/a cells).
     */
    CampaignResult runChecked(const std::vector<SimOptions> &runs);

    const CampaignConfig &config() const { return config_; }

    /** Accounting of the most recent runChecked() call. */
    const CampaignStats &lastStats() const { return lastStats_; }

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
    /** "benchmark|scheme|config": last tie-breaker. */
    std::string identity;
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
constexpr unsigned kJournalFormatVersion = 5;

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
