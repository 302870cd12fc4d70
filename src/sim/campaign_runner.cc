/**
 * @file
 * Parallel campaign engine implementation: fingerprinting, the
 * CRC-protected in-process/on-disk run cache, the fault-isolated
 * fan-out loop, and the bench journal (which doubles as the campaign
 * failure manifest).
 */

#include "sim/campaign_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <sstream>
#include <thread>

#include <csignal>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/build_info.hh"
#include "common/crc32.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/trace_sink.hh"
#include "lsq/policy/registry.hh"
#include "sim/fault_injector.hh"

namespace dmdc
{

namespace
{

using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(
        Clock::now() - since).count();
}

/** Interned-once trace identities for the campaign runner layer. */
struct RunnerTrace
{
    TraceCategory &cat = traceCategory("runner");
    std::uint16_t campaign = traceNameId("campaign");
    std::uint16_t memHit = traceNameId("cache-mem-hit");
    std::uint16_t diskHit = traceNameId("cache-disk-hit");
    std::uint16_t quarantine = traceNameId("cache-quarantine");
    std::uint16_t retry = traceNameId("retry");
};

RunnerTrace &
runnerTrace()
{
    static RunnerTrace ids;
    return ids;
}

/**
 * Fingerprint of the simulator behaviour surface: the policy
 * registry's version string (API version + every scheme@revision),
 * hashed. Any registered-scheme change or declared behaviour revision
 * self-invalidates every stale cache entry.
 */
const std::string &
sourceFingerprint()
{
    static const std::string fp = [] {
        const std::string v =
            DependencePolicyRegistry::instance().versionString();
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(
                          hashBytes(v.data(), v.size())));
        return std::string(buf);
    }();
    return fp;
}

/** Current wall-clock time as an ISO-8601 UTC string. */
std::string
utcTimestamp()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

// ---- bench journal / failure manifest --------------------------------

struct JournalRecord
{
    std::string benchmark;
    std::string scheme;
    unsigned configLevel;
    double ipc;
    std::uint64_t cycles;
    double wallMs;
    double simKhz;  ///< simulated kilocycles per wall second; 0 cached
    bool cached;
    RunStatus status;
    std::string category; ///< empty when ok
    std::string error;    ///< empty when ok
    unsigned attempts;
    unsigned shard;

    // Oracle verdict of a checked run ("off" otherwise). Emitted only
    // in the non-deterministic journal: --check=off journals must stay
    // byte-identical to pre-oracle ones, and checked runs are excluded
    // from the deterministic format by construction (uncacheable).
    std::string checkMode = "off";
    std::uint64_t oracleLoads = 0;
    std::uint64_t oracleStale = 0;
    std::uint64_t oracleForbidden = 0;
};

struct Journal
{
    std::mutex mutex;
    std::string path;
    bool deterministic = false;
    std::vector<JournalRecord> records;

    // Shard header state, accumulated across runChecked() calls: a
    // harness may run several campaigns into one journal, so the
    // campaign fingerprint chains and the run totals add up.
    bool sharded = false;
    unsigned shardIndex = 0;
    unsigned shardCount = 1;
    std::uint64_t runsTotal = 0;
    std::uint64_t campaignHash = 0;
};

Journal &
journal()
{
    static Journal j;
    return j;
}

void
appendJournal(const SimResult &r, const RunOutcome &oc)
{
    Journal &j = journal();
    std::lock_guard<std::mutex> lock(j.mutex);
    if (j.path.empty())
        return;
    // cycles per wall millisecond == simulated kilocycles per second.
    // A cached result cost no simulation time; record 0 rather than a
    // nonsense rate derived from the cache-lookup latency.
    const double sim_khz = (!oc.cached && oc.wallMs > 0.0)
        ? static_cast<double>(r.cycles) / oc.wallMs : 0.0;
    j.records.push_back({r.benchmark, r.scheme, r.configLevel, r.ipc,
                         r.cycles, oc.wallMs, sim_khz, oc.cached,
                         oc.status, "", "", oc.attempts, oc.shard,
                         r.checkMode, r.oracleLoadsChecked,
                         r.oracleStaleCommits, r.oracleForbidden});
}

void
appendJournalFailure(const SimOptions &opt, const RunOutcome &oc)
{
    Journal &j = journal();
    std::lock_guard<std::mutex> lock(j.mutex);
    if (j.path.empty())
        return;
    j.records.push_back({opt.benchmark, opt.scheme, opt.configLevel,
                         0.0, 0, oc.wallMs, 0.0, false, oc.status,
                         runErrorCategoryName(oc.category), oc.error,
                         oc.attempts, oc.shard,
                         checkModeName(opt.check), 0, 0, 0});
}

/** The journal-model view of @p rec: identity, status and outcome. */
JournalEntry
journalEntryOf(const JournalRecord &rec)
{
    JournalEntry e;
    e.benchmark = rec.benchmark;
    e.scheme = rec.scheme;
    e.config = rec.configLevel;
    e.status = rec.status;
    if (rec.status == RunStatus::Ok) {
        e.ipcToken = doubleToken(rec.ipc);
        e.cyclesToken = std::to_string(rec.cycles);
    } else {
        e.category = rec.category;
        e.error = rec.error;
    }
    return e;
}

/**
 * Stamp the journal as one shard's slice of a campaign. Called once
 * per runChecked() campaign in sharded mode; fingerprints chain so a
 * multi-campaign harness still yields one comparable campaign id.
 */
void
journalNoteShardSlice(const std::string &fingerprint,
                      std::size_t campaignRuns, const ShardSpec &spec)
{
    Journal &j = journal();
    std::lock_guard<std::mutex> lock(j.mutex);
    if (j.path.empty())
        return;
    j.sharded = true;
    j.shardIndex = spec.index;
    j.shardCount = spec.count;
    j.runsTotal += campaignRuns;
    j.campaignHash = hashBytes(fingerprint.data(), fingerprint.size(),
                               j.campaignHash);
}

} // namespace

void
setCampaignJournal(const std::string &path, bool deterministic)
{
    Journal &j = journal();
    {
        std::lock_guard<std::mutex> lock(j.mutex);
        // Retargeting starts a fresh journal; the records of the
        // previous target belong to its file (already flushed or
        // about to be dropped), not to the new one.
        if (path != j.path) {
            j.records.clear();
            j.sharded = false;
            j.shardIndex = 0;
            j.shardCount = 1;
            j.runsTotal = 0;
            j.campaignHash = 0;
        }
        j.path = path;
        j.deterministic = deterministic;
    }
    // Benches exit through main()'s return; flush without requiring
    // every harness to remember a call.
    static const bool registered = [] {
        std::atexit(flushCampaignJournal);
        return true;
    }();
    (void)registered;
}

void
flushCampaignJournal()
{
    Journal &j = journal();
    std::lock_guard<std::mutex> lock(j.mutex);
    if (j.path.empty())
        return;
    // Serialize to memory and publish atomically: the journal is the
    // campaign's failure manifest, and a worker killed mid-flush must
    // leave either the previous complete journal or the new one on
    // disk — never a torn file.
    std::ostringstream os;
    os << "{\"version\":" << kCacheFormatVersion
       << ",\"commit\":\"" << buildCommit() << '"';
    if (!j.deterministic)
        os << ",\"generated_utc\":\"" << utcTimestamp() << '"';
    if (j.sharded) {
        // Shard journals carry what the merger needs to validate that
        // a journal set belongs together: the (chained) campaign
        // fingerprint, this slice's coordinates, and the full
        // campaign's run count.
        char fp[20];
        std::snprintf(fp, sizeof(fp), "%016llx",
                      static_cast<unsigned long long>(j.campaignHash));
        os << ",\"campaign\":\"" << fp
           << "\",\"shard_index\":" << j.shardIndex
           << ",\"shard_count\":" << j.shardCount
           << ",\"runs_total\":" << j.runsTotal;
    }
    os << ",\"results\":[";
    const char *sep = "";
    if (j.deterministic) {
        // Workers append in completion order; canonicalize through
        // the shared serializer so shard journals merge into a file
        // byte-identical to a single-process one (campaign_shard.hh).
        std::vector<JournalEntry> entries;
        entries.reserve(j.records.size());
        for (const JournalRecord &rec : j.records)
            entries.push_back(journalEntryOf(rec));
        std::sort(entries.begin(), entries.end(), journalEntryLess);
        for (const JournalEntry &e : entries) {
            os << sep;
            sep = ",";
            writeJournalEntry(os, e);
        }
    } else {
        for (const JournalRecord &rec : j.records) {
            std::string extra =
                ",\"attempts\":" + std::to_string(rec.attempts) +
                ",\"wall_ms\":" + doubleToken(rec.wallMs) +
                ",\"sim_khz\":" + doubleToken(rec.simKhz) +
                ",\"cached\":" + (rec.cached ? "true" : "false");
            if (rec.checkMode != "off") {
                extra += ",\"check\":\"" + rec.checkMode +
                         "\",\"oracle_loads\":" +
                         std::to_string(rec.oracleLoads) +
                         ",\"oracle_stale\":" +
                         std::to_string(rec.oracleStale) +
                         ",\"oracle_forbidden\":" +
                         std::to_string(rec.oracleForbidden);
            }
            if (j.sharded)
                extra += ",\"shard\":" + std::to_string(rec.shard);
            os << sep;
            sep = ",";
            writeJournalEntry(os, journalEntryOf(rec), extra);
        }
    }
    os << "\n]}\n";
    if (!writeFileAtomic(j.path, os.str()))
        warn("cannot write bench journal '%s'", j.path.c_str());
    // Records stay buffered: flush is idempotent, so an explicit
    // flush followed by the atexit flush rewrites the same content
    // instead of truncating the journal to an empty one.
}

// ---- cooperative interruption ---------------------------------------

namespace
{

std::atomic<bool> g_interruptRequested{false};

volatile std::sig_atomic_t g_workerSignals = 0;

extern "C" void
workerSignalHandler(int sig)
{
    // Second signal: the user wants out *now*; skip all cleanup.
    g_workerSignals = g_workerSignals + 1;
    if (g_workerSignals >= 2)
        _exit(128 + sig);
    requestCampaignInterrupt();
}

} // namespace

void
requestCampaignInterrupt()
{
    // Async-signal-safe: a lock-free store is all a handler may do.
    g_interruptRequested.store(true, std::memory_order_relaxed);
}

bool
campaignInterruptRequested()
{
    return g_interruptRequested.load(std::memory_order_relaxed);
}

void
installWorkerSignalHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = workerSignalHandler;
    sigemptyset(&sa.sa_mask);
    // No SA_RESTART: a worker blocked in a long read should see EINTR
    // and fall into the interrupt path instead of finishing the call.
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

// ---- fingerprinting --------------------------------------------------

bool
cacheableOptions(const SimOptions &opt)
{
    // Checked runs are deliberately uncacheable in both directions: a
    // cache hit would skip the simulation the oracle exists to verify,
    // and a checked result must never masquerade as a plain one.
    return opt.observers.empty() && !opt.tweak &&
        opt.check == CheckMode::Off && opt.coherenceAgent.empty();
}

const std::string &
policySourceFingerprint()
{
    return sourceFingerprint();
}

std::string
cacheKey(const SimOptions &opt)
{
    if (!cacheableOptions(opt))
        panic("cacheKey() on options with observers/tweak attached");
    std::ostringstream os;
    os << "dmdc-cache-v" << kCacheFormatVersion
       << "|src=" << sourceFingerprint()
       << "|bench=" << opt.benchmark
       << "|config=" << opt.configLevel
       << "|scheme=" << opt.scheme
       << "|warmup=" << opt.warmupInsts
       << "|insts=" << opt.runInsts
       << "|inv=" << doubleToken(opt.invalidationsPer1kCycles)
       << "|coherence=" << opt.coherence
       << "|safe_loads=" << opt.safeLoads
       << "|sq_filter=" << opt.sqFilter
       << "|yla_qw=" << opt.numYlaQw
       << "|table=" << opt.tableEntriesOverride
       << "|queue=" << opt.queueEntries;
    return os.str();
}

// ---- CampaignRunner --------------------------------------------------

CampaignRunner::CampaignRunner(CampaignConfig config)
    : config_(std::move(config))
{
    CacheStoreConfig sc;
    sc.dir = config_.cacheDir;
    sc.maxBytes = config_.cacheMaxBytes;
    sc.quarantineMaxEntries = config_.quarantineMaxEntries;
    sc.quarantineMaxBytes = config_.quarantineMaxBytes;
    diskStore_ = std::make_unique<CacheStore>(sc);
}

CampaignRunner::CacheLoad
CampaignRunner::loadFromDisk(const std::string &key, SimResult &out)
{
    // The store owns the framing (CRC header, truncation, version);
    // the runner owns the payload schema on top of it.
    std::string payload;
    switch (diskStore_->load(key, payload)) {
      case CacheStore::Load::Miss:
        return CacheLoad::Miss;
      case CacheStore::Load::Corrupt:
        return CacheLoad::Corrupt;
      case CacheStore::Load::Hit:
        break;
    }
    JsonValue doc;
    std::string err;
    if (!parseJson(payload, doc, err) ||
        doc.kind != JsonValue::Kind::Object) {
        diskStore_->quarantineKey(key, "has an unparsable payload");
        return CacheLoad::Corrupt;
    }
    // A hash collision surfaces as a key mismatch; that is a plain
    // miss (the fresh result overwrites the entry), not corruption.
    const JsonValue *stored = doc.find("key");
    if (!stored || stored->kind != JsonValue::Kind::String ||
        stored->text != key)
        return CacheLoad::Miss;
    const JsonValue *result = doc.find("result");
    if (!result || !readSimResultJson(*result, out)) {
        diskStore_->quarantineKey(key, "is missing result fields");
        return CacheLoad::Corrupt;
    }
    return CacheLoad::Hit;
}

void
CampaignRunner::storeToDisk(const std::string &key, const SimResult &r)
{
    std::ostringstream os;
    os << "{\"version\":" << kCacheFormatVersion << ",\"key\":\""
       << jsonEscapeString(key) << "\",\"result\":";
    writeSimResultJson(os, r);
    os << "}\n";
    diskStore_->store(key, os.str());
}

CampaignResult
CampaignRunner::runChecked(const std::vector<SimOptions> &runs_in,
                           bool verbose)
{
    // Materialize the campaign-wide --check/--agent override before
    // anything looks at the options: classification, fingerprints,
    // and journaling must all see the checked options.
    std::vector<SimOptions> checked_runs;
    const std::vector<SimOptions> *run_list = &runs_in;
    if (config_.checkMode != CheckMode::Off ||
        !config_.coherenceAgent.empty()) {
        checked_runs = runs_in;
        for (SimOptions &o : checked_runs) {
            if (o.check == CheckMode::Off)
                o.check = config_.checkMode;
            if (o.coherenceAgent.empty())
                o.coherenceAgent = config_.coherenceAgent;
        }
        run_list = &checked_runs;
    }
    const std::vector<SimOptions> &runs = *run_list;

    RunnerTrace &rt = runnerTrace();
    TraceSpan campaign_span(rt.cat, rt.campaign);
    const auto t0 = Clock::now();
    CampaignStats stats;
    stats.runs = runs.size();
    const std::size_t quarantine_evicted_before =
        diskStore_->stats().quarantineEvicted;
    const std::size_t evicted_before = diskStore_->stats().evicted;

    CampaignResult cr;
    cr.results.resize(runs.size());
    cr.outcomes.resize(runs.size());

    // ---- shard partition ---------------------------------------------
    // Every shard process computes the same assignment from the same
    // run list; this process executes only its slice. Other slices
    // complete instantly as OutOfShard and are never journaled here.
    const ShardSpec shard = config_.shard;
    std::vector<unsigned> owner;
    if (shard.active()) {
        owner = shardAssignment(runs, shard.count);
        journalNoteShardSlice(campaignFingerprint(runs), runs.size(),
                              shard);
    }

    // ---- classify: cache hits, leaders, followers --------------------
    struct Pending
    {
        std::size_t index;
        std::string key;        ///< empty for uncacheable runs
    };
    std::vector<Pending> pending;
    pending.reserve(runs.size());
    // key -> index of the run that will simulate it; duplicate keys
    // within one campaign simulate once and copy.
    std::unordered_map<std::string, std::size_t> leaders;
    std::vector<std::pair<std::size_t, std::size_t>> followers;

    // Run i was loaded from its verified disk entry: settle it as a
    // cache hit.
    auto settle_disk_hit = [&](std::size_t i, const std::string &key) {
        traceInstant(rt.cat, rt.diskHit);
        {
            std::lock_guard<std::mutex> lock(memMutex_);
            memCache_.emplace(key, cr.results[i]);
        }
        cr.outcomes[i].cached = true;
        cr.outcomes[i].attempts = 0;
        appendJournal(cr.results[i], cr.outcomes[i]);
    };

    for (std::size_t i = 0; i < runs.size(); ++i) {
        const SimOptions &opt = runs[i];
        if (shard.active()) {
            cr.outcomes[i].shard = owner[i];
            if (owner[i] != shard.index) {
                RunOutcome &oc = cr.outcomes[i];
                oc.status = RunStatus::OutOfShard;
                oc.category = RunErrorCategory::Config;
                oc.error = "assigned to shard " +
                           std::to_string(owner[i]) + " of " +
                           std::to_string(shard.count);
                oc.attempts = 0;
                ++stats.outOfShard;
                continue;
            }
        }
        if (!cacheableOptions(opt)) {
            ++stats.uncacheable;
            pending.push_back({i, ""});
            continue;
        }
        const std::string key = cacheKey(opt);
        if (config_.useCache) {
            {
                std::lock_guard<std::mutex> lock(memMutex_);
                auto it = memCache_.find(key);
                if (it != memCache_.end()) {
                    cr.results[i] = it->second;
                    ++stats.memoryHits;
                    traceInstant(rt.cat, rt.memHit);
                    cr.outcomes[i].cached = true;
                    cr.outcomes[i].attempts = 0;
                    appendJournal(cr.results[i], cr.outcomes[i]);
                    continue;
                }
            }
            const CacheLoad load = loadFromDisk(key, cr.results[i]);
            if (load == CacheLoad::Corrupt) {
                ++stats.quarantined;
                traceInstant(rt.cat, rt.quarantine);
            }
            if (load == CacheLoad::Hit) {
                ++stats.diskHits;
                settle_disk_hit(i, key);
                continue;
            }
        }
        auto [it, fresh] = leaders.try_emplace(key, i);
        if (!fresh) {
            followers.emplace_back(i, it->second);
            continue;
        }
        pending.push_back({i, key});
    }

    // ---- fan out, isolating each run ---------------------------------
    stats.simulated = pending.size();
    std::atomic<bool> abort_flag{false};
    if (!pending.empty()) {
        unsigned jobs = config_.jobs
            ? config_.jobs : defaultWorkerCount();
        jobs = std::min<std::size_t>(jobs, pending.size());

        auto execute_run =
            [this, &runs, &cr, verbose, &abort_flag,
             &rt](const Pending &p, bool claimed) {
                const auto run_t0 = Clock::now();
                RunOutcome oc;
                oc.shard = config_.shard.index;
                std::string id;
                const bool interrupted = campaignInterruptRequested();
                if (abort_flag.load(std::memory_order_relaxed) ||
                    interrupted) {
                    oc.status = RunStatus::Skipped;
                    oc.category = RunErrorCategory::SimInvariant;
                    oc.error = interrupted
                        ? "interrupted by signal"
                        : "skipped after earlier failure (fail-fast)";
                    oc.attempts = 0;
                } else {
                    SimOptions opt = runs[p.index];
                    if (opt.timeoutMs == 0.0)
                        opt.timeoutMs = config_.timeoutMs;
                    id = runIdentity(opt);
                    // Run lifecycle span, labeled with the run
                    // identity (one interned name per distinct triple)
                    // and covering every retry attempt.
                    TraceSpan run_span(
                        rt.cat, rt.cat.on() ? traceNameId(id) : 0);
                    for (unsigned attempt = 0;; ++attempt) {
                        oc.attempts = attempt + 1;
                        try {
                            if (FaultInjector::global().injectRunThrow(
                                    id, attempt)) {
                                throw RunError(
                                    RunErrorCategory::SimInvariant,
                                    "injected fault: run-throw",
                                    /*transient=*/true);
                            }
                            cr.results[p.index] = runSimulation(opt);
                            oc.status = RunStatus::Ok;
                            oc.error.clear();
                            break;
                        } catch (const RunError &e) {
                            oc.status = e.category() ==
                                    RunErrorCategory::Timeout
                                ? RunStatus::TimedOut
                                : RunStatus::Failed;
                            oc.category = e.category();
                            oc.error = e.what();
                            if (e.transient() &&
                                attempt < config_.maxRetries) {
                                traceInstant(rt.cat, rt.retry);
                                // Exponential backoff, capped: long
                                // enough to let a racing writer
                                // finish, short enough to not stall
                                // the pool.
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(
                                        1u << std::min(attempt, 5u)));
                                continue;
                            }
                            break;
                        } catch (const std::exception &e) {
                            oc.status = RunStatus::Failed;
                            oc.category =
                                RunErrorCategory::SimInvariant;
                            oc.error = e.what();
                            break;
                        } catch (...) {
                            oc.status = RunStatus::Failed;
                            oc.category =
                                RunErrorCategory::SimInvariant;
                            oc.error = "unknown exception";
                            break;
                        }
                    }
                }
                oc.wallMs = elapsedMs(run_t0);
                if (oc.ok()) {
                    const SimResult &r = cr.results[p.index];
                    if (!p.key.empty() && config_.useCache) {
                        {
                            std::lock_guard<std::mutex> lock(
                                memMutex_);
                            memCache_.emplace(p.key, r);
                        }
                        storeToDisk(p.key, r);
                    }
                    appendJournal(r, oc);
                    if (verbose) {
                        inform("  %-10s %-12s config%u  ipc=%.2f"
                               "  (%.0f ms%s)",
                               r.benchmark.c_str(), r.scheme.c_str(),
                               r.configLevel, r.ipc, oc.wallMs,
                               oc.attempts > 1 ? ", retried" : "");
                    }
                } else {
                    if (config_.failFast &&
                        oc.status != RunStatus::Skipped) {
                        abort_flag.store(true,
                                         std::memory_order_relaxed);
                    }
                    appendJournalFailure(runs[p.index], oc);
                    if (oc.status != RunStatus::Skipped) {
                        warn("  %s/%s config%u %s after %u "
                             "attempt(s): %s",
                             runs[p.index].benchmark.c_str(),
                             runs[p.index].scheme.c_str(),
                             runs[p.index].configLevel,
                             runStatusName(oc.status), oc.attempts,
                             oc.error.c_str());
                    }
                }
                cr.outcomes[p.index] = oc;
                if (claimed)
                    diskStore_->releaseClaim(p.key);

                // Process-level chaos. Fires only after a *freshly
                // simulated* run has been cached, so every injected
                // crash strictly follows progress: rerunning the same
                // command is served this run from the cache, and a
                // campaign with R runs converges within R + 1
                // invocations.
                if (oc.ok() && !id.empty() &&
                    FaultInjector::global().injectWorkerCrash(id)) {
                    warn("injected fault: worker-crash after %s",
                         id.c_str());
                    std::raise(SIGKILL);
                }
            };

        // Cross-process dedup (cache_store.hh): a cacheable run first
        // claims its key. Returns false to defer a run another live
        // process is simulating; true once the run is settled — served
        // from the entry a claim holder published, or simulated here
        // (claimed, unclaimable, or waited on past its timeout).
        std::atomic<std::size_t> peer_hits{0};
        std::atomic<std::size_t> peer_quarantined{0};
        auto try_run = [&](const Pending &p, Clock::time_point since) {
            if (p.key.empty() || !config_.useCache ||
                abort_flag.load(std::memory_order_relaxed) ||
                campaignInterruptRequested()) {
                execute_run(p, false);
                return true;
            }
            const CacheStore::Claim claim = diskStore_->claim(p.key);
            if (claim == CacheStore::Claim::Held) {
                const double budget = runs[p.index].timeoutMs != 0.0
                    ? runs[p.index].timeoutMs : config_.timeoutMs;
                if (budget <= 0.0 || elapsedMs(since) < budget)
                    return false;
            }
            if (claim == CacheStore::Claim::Won) {
                const CacheLoad load =
                    loadFromDisk(p.key, cr.results[p.index]);
                if (load == CacheLoad::Corrupt) {
                    ++peer_quarantined;
                    traceInstant(rt.cat, rt.quarantine);
                }
                if (load == CacheLoad::Hit) {
                    ++peer_hits;
                    settle_disk_hit(p.index, p.key);
                    diskStore_->releaseClaim(p.key);
                    return true;
                }
            }
            execute_run(p, claim == CacheStore::Claim::Won);
            return true;
        };

        // The scheduler decides placement (see run_scheduler.hh):
        // runs land on per-worker queues keyed by journal identity,
        // and each worker drains its queue — stealing from the others
        // — until no unclaimed run remains. Runs deferred behind
        // another process's claim are then polled with bounded
        // backoff until they settle.
        std::vector<ScheduledRun> items;
        items.reserve(pending.size());
        for (std::size_t s = 0; s < pending.size(); ++s) {
            const SimOptions &opt = runs[pending[s].index];
            items.push_back(
                {s,
                 journalIdentity(opt.benchmark, opt.scheme,
                                 opt.configLevel),
                 static_cast<double>(opt.warmupInsts) +
                     static_cast<double>(opt.runInsts)});
        }
        RunScheduler scheduler;
        scheduler.seed(std::move(items), jobs);
        std::vector<std::thread> workers;
        workers.reserve(jobs);
        for (unsigned w = 0; w < jobs; ++w) {
            workers.emplace_back([&, w] {
                traceSetThreadName("worker-" + std::to_string(w));
                std::vector<std::pair<const Pending *, Clock::time_point>>
                    deferred;
                ScheduledRun item;
                while (scheduler.next(w, item)) {
                    const Pending &p = pending[item.index];
                    const auto now = Clock::now();
                    if (!try_run(p, now))
                        deferred.emplace_back(&p, now);
                }
                unsigned backoff_ms = 1;
                while (!deferred.empty()) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(backoff_ms));
                    backoff_ms = std::min(backoff_ms * 2, 64u);
                    deferred.erase(
                        std::remove_if(deferred.begin(), deferred.end(),
                                       [&](const auto &d) {
                                           return try_run(*d.first,
                                                          d.second);
                                       }),
                        deferred.end());
                }
            });
        }
        for (std::thread &t : workers)
            t.join();
        stats.simulated -= peer_hits;
        stats.diskHits += peer_hits;
        stats.quarantined += peer_quarantined;
    }

    // ---- duplicate runs copy their leader ----------------------------
    for (const auto &[dst, src] : followers) {
        const RunOutcome &leader = cr.outcomes[src];
        RunOutcome oc;
        oc.shard = config_.shard.index;
        if (leader.ok()) {
            cr.results[dst] = cr.results[src];
            oc.cached = true;
            oc.attempts = 0;
            appendJournal(cr.results[dst], oc);
        } else {
            oc.status = RunStatus::Skipped;
            oc.category = leader.category;
            oc.error = "duplicate of a failed run";
            oc.attempts = 0;
            appendJournalFailure(runs[dst], oc);
        }
        cr.outcomes[dst] = oc;
    }

    // ---- accounting + cache hygiene ----------------------------------
    for (const RunOutcome &oc : cr.outcomes) {
        switch (oc.status) {
          case RunStatus::Failed:   ++stats.failed;   break;
          case RunStatus::TimedOut: ++stats.timedOut; break;
          case RunStatus::Skipped:  ++stats.skipped;  break;
          case RunStatus::OutOfShard: break; // counted in classify
          default: break;
        }
        if (oc.attempts > 1)
            ++stats.retried;
    }
    if (config_.useCache) {
        diskStore_->evictToCap();
        stats.evicted = diskStore_->stats().evicted - evicted_before;
    }
    stats.quarantineEvicted =
        diskStore_->stats().quarantineEvicted -
        quarantine_evicted_before;

    stats.wallMs = elapsedMs(t0);
    totalSimulated_ += stats.simulated;
    lastStats_ = stats;

    if (verbose || runs.size() > 1) {
        if (shard.active()) {
            inform("campaign shard %u/%u: %zu of %zu runs in this "
                   "slice",
                   shard.index, shard.count,
                   stats.runs - stats.outOfShard, stats.runs);
        }
        inform("campaign: %zu runs in %.2fs (%.1f sims/s; "
               "%zu simulated, %zu mem hits, %zu disk hits, "
               "%zu uncacheable)",
               stats.runs, stats.wallMs / 1000.0, stats.simsPerSec(),
               stats.simulated, stats.memoryHits, stats.diskHits,
               stats.uncacheable);
        if (stats.failed || stats.timedOut || stats.skipped ||
            stats.retried || stats.quarantined || stats.evicted ||
            stats.quarantineEvicted) {
            inform("campaign health: %zu failed, %zu timed out, "
                   "%zu skipped, %zu retried, %zu cache entries "
                   "quarantined, %zu evicted, %zu quarantine files "
                   "aged out",
                   stats.failed, stats.timedOut, stats.skipped,
                   stats.retried, stats.quarantined, stats.evicted,
                   stats.quarantineEvicted);
        }
    }
    return cr;
}

SimResult
CampaignRunner::runOne(const SimOptions &options, bool verbose)
{
    CampaignResult cr =
        runChecked(std::vector<SimOptions>{options}, verbose);
    const RunOutcome &oc = cr.outcomes.front();
    if (!oc.ok() && oc.inShard()) {
        flushCampaignJournal();
        fatal("run %s/%s config%u %s (%s: %s)",
              options.benchmark.c_str(), options.scheme.c_str(),
              options.configLevel, runStatusName(oc.status),
              runErrorCategoryName(oc.category), oc.error.c_str());
    }
    return std::move(cr.results.front());
}

namespace
{

struct GlobalRunner
{
    std::mutex mutex;
    CampaignConfig config;
    std::unique_ptr<CampaignRunner> runner;
};

GlobalRunner &
globalRunner()
{
    static GlobalRunner g;
    return g;
}

} // namespace

CampaignRunner &
CampaignRunner::global()
{
    GlobalRunner &g = globalRunner();
    std::lock_guard<std::mutex> lock(g.mutex);
    if (!g.runner)
        g.runner = std::make_unique<CampaignRunner>(g.config);
    return *g.runner;
}

void
CampaignRunner::configureGlobal(const CampaignConfig &config)
{
    GlobalRunner &g = globalRunner();
    std::lock_guard<std::mutex> lock(g.mutex);
    g.config = config;
    g.runner.reset();
}

} // namespace dmdc
