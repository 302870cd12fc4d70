/**
 * @file
 * Parallel campaign engine implementation: fingerprinting, the
 * CRC-protected on-disk run cache, the fault-isolated fan-out loop,
 * and the bench journal (which doubles as the campaign failure
 * manifest).
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
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_map>

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
                         oc.status, "", "", oc.attempts,
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
                         oc.attempts,
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

/** The journals' lossy string escaper: quotes and backslashes are
 *  escaped, control characters become spaces (journal bytes are
 *  contractual, so this never changes). */
std::string
escapeJournalString(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out.push_back(' ');
        } else {
            out.push_back(c);
        }
    }
    return out;
}

} // namespace

bool
journalEntryLess(const JournalEntry &a, const JournalEntry &b)
{
    // The value tokens break ties between runs that share a journal
    // identity but differ in hidden knobs (e.g. an invalidation-rate
    // sweep): without them their order would follow completion order.
    // They compare as strings, not numbers: the order is part of the
    // journal bytes.
    return std::tie(a.benchmark, a.scheme, a.config, a.status, a.error,
                    a.cyclesToken, a.ipcToken) <
           std::tie(b.benchmark, b.scheme, b.config, b.status, b.error,
                    b.cyclesToken, b.ipcToken);
}

void
writeJournalEntry(std::ostream &os, const JournalEntry &e,
                  const std::string &extra)
{
    os << "\n  {\"benchmark\":\"" << e.benchmark
       << "\",\"scheme\":\"" << e.scheme
       << "\",\"config\":" << e.config
       << ",\"status\":\"" << runStatusName(e.status) << '"';
    if (e.status == RunStatus::Ok) {
        os << ",\"ipc\":" << e.ipcToken
           << ",\"cycles\":" << e.cyclesToken;
    } else {
        os << ",\"category\":\"" << escapeJournalString(e.category)
           << "\",\"error\":\"" << escapeJournalString(e.error) << '"';
    }
    os << extra << '}';
}

void
setCampaignJournal(const std::string &path, bool deterministic)
{
    Journal &j = journal();
    {
        std::lock_guard<std::mutex> lock(j.mutex);
        // Retargeting starts a fresh journal; the records of the
        // previous target belong to its file (already flushed or
        // about to be dropped), not to the new one.
        if (path != j.path)
            j.records.clear();
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
    // The build stamp is provenance, like the timestamp: identical
    // code built twice (or from an archive, which stamps "unknown")
    // must still write identical deterministic journals.
    os << "{\"version\":" << kJournalFormatVersion;
    if (!j.deterministic) {
        os << ",\"commit\":\"" << buildCommit()
           << "\",\"generated_utc\":\"" << utcTimestamp() << '"';
    }
    os << ",\"results\":[";
    const char *sep = "";
    if (j.deterministic) {
        // Workers append in completion order; sort canonically so
        // any run of the same campaign writes the same bytes.
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
journalIdentity(const std::string &benchmark, const std::string &scheme,
                unsigned config)
{
    std::string id = benchmark;
    id += '|';
    id += scheme;
    id += '|';
    id += std::to_string(config);
    return id;
}

std::string
runIdentity(const SimOptions &opt)
{
    std::ostringstream os;
    os << "bench=" << opt.benchmark
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
    if (!opt.observers.empty() || opt.tweak)
        os << "|custom=1";
    return os.str();
}

std::string
cacheKey(const SimOptions &opt)
{
    if (!cacheableOptions(opt))
        panic("cacheKey() on options with observers/tweak attached");
    return "dmdc-cache-v" + std::to_string(kCacheFormatVersion) +
           "|src=" + sourceFingerprint() + '|' + runIdentity(opt);
}

// ---- run queue order -------------------------------------------------

LptItem
lptItem(const SimOptions &opt)
{
    LptItem item;
    item.cost = static_cast<double>(opt.warmupInsts) +
                static_cast<double>(opt.runInsts);
    item.identity =
        journalIdentity(opt.benchmark, opt.scheme, opt.configLevel);
    item.hash = hashBytes(item.identity.data(), item.identity.size());
    return item;
}

bool
lptBefore(const LptItem &a, const LptItem &b)
{
    return std::tie(b.cost, a.hash, a.identity) <
           std::tie(a.cost, b.hash, b.identity);
}

// ---- CampaignRunner --------------------------------------------------

unsigned
defaultWorkerCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

CampaignRunner::CampaignRunner(CampaignConfig config)
    : config_(std::move(config))
{
    CacheStoreConfig sc;
    sc.dir = config_.cacheDir;
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
CampaignRunner::runChecked(const std::vector<SimOptions> &runs_in)
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

    CampaignResult cr;
    cr.results.resize(runs.size());
    cr.outcomes.resize(runs.size());

    // ---- classify: cache hits, leaders, followers --------------------
    struct Pending
    {
        std::size_t index;
        std::string key;        ///< empty for uncacheable runs
        LptItem lpt;            ///< sort key of the run queue
    };
    std::vector<Pending> pending;
    pending.reserve(runs.size());
    // key -> index of the run that will simulate it; duplicate keys
    // within one campaign simulate once and copy.
    std::unordered_map<std::string, std::size_t> leaders;
    std::vector<std::pair<std::size_t, std::size_t>> followers;

    // Run i was loaded from its verified disk entry: settle it as a
    // cache hit.
    auto settle_disk_hit = [&](std::size_t i) {
        traceInstant(rt.cat, rt.diskHit);
        cr.outcomes[i].cached = true;
        cr.outcomes[i].attempts = 0;
        appendJournal(cr.results[i], cr.outcomes[i]);
    };

    for (std::size_t i = 0; i < runs.size(); ++i) {
        const SimOptions &opt = runs[i];
        if (!cacheableOptions(opt)) {
            ++stats.uncacheable;
            pending.push_back({i, "", lptItem(opt)});
            continue;
        }
        const std::string key = cacheKey(opt);
        if (config_.useCache) {
            const CacheLoad load = loadFromDisk(key, cr.results[i]);
            if (load == CacheLoad::Corrupt) {
                ++stats.quarantined;
                traceInstant(rt.cat, rt.quarantine);
            }
            if (load == CacheLoad::Hit) {
                ++stats.diskHits;
                settle_disk_hit(i);
                continue;
            }
        }
        auto [it, fresh] = leaders.try_emplace(key, i);
        if (!fresh) {
            followers.emplace_back(i, it->second);
            continue;
        }
        pending.push_back({i, key, lptItem(opt)});
    }

    // ---- fan out, isolating each run ---------------------------------
    stats.simulated = pending.size();
    std::atomic<bool> abort_flag{false};
    if (!pending.empty()) {
        unsigned jobs = config_.jobs
            ? config_.jobs : defaultWorkerCount();
        jobs = std::min<std::size_t>(jobs, pending.size());

        auto execute_run =
            [this, &runs, &cr, &abort_flag,
             &rt](const Pending &p, bool claimed) {
                const auto run_t0 = Clock::now();
                RunOutcome oc;
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
                    if (!p.key.empty() && config_.useCache)
                        storeToDisk(p.key, r);
                    appendJournal(r, oc);
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
                    settle_disk_hit(p.index);
                    diskStore_->releaseClaim(p.key);
                    return true;
                }
            }
            execute_run(p, claim == CacheStore::Claim::Won);
            return true;
        };

        // One shared queue. With several workers it is in LPT order
        // (lptBefore()): the biggest runs start first, so the last runs to finish are short ones.
        // One worker keeps the list order, which costs it nothing and
        // makes fail-fast skip exactly the runs after the first
        // failure. Each worker takes the next unclaimed run until the
        // queue is empty, then polls the runs it deferred behind
        // another process's claim, with bounded backoff, until they
        // settle.
        if (jobs > 1) {
            std::stable_sort(pending.begin(), pending.end(),
                             [](const Pending &a, const Pending &b) {
                                 return lptBefore(a.lpt, b.lpt);
                             });
        }
        std::atomic<std::size_t> cursor{0};
        std::vector<std::thread> workers;
        workers.reserve(jobs);
        for (unsigned w = 0; w < jobs; ++w) {
            workers.emplace_back([&, w] {
                traceSetThreadName("worker-" + std::to_string(w));
                std::vector<std::pair<const Pending *, Clock::time_point>>
                    deferred;
                for (std::size_t n; (n = cursor.fetch_add(1)) <
                                    pending.size();) {
                    const Pending &p = pending[n];
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

    // ---- accounting --------------------------------------------------
    for (const RunOutcome &oc : cr.outcomes) {
        switch (oc.status) {
          case RunStatus::Failed:   ++stats.failed;   break;
          case RunStatus::TimedOut: ++stats.timedOut; break;
          case RunStatus::Skipped:  ++stats.skipped;  break;
          default: break;
        }
        if (oc.attempts > 1)
            ++stats.retried;
    }
    stats.quarantineEvicted =
        diskStore_->stats().quarantineEvicted -
        quarantine_evicted_before;

    stats.wallMs = elapsedMs(t0);
    lastStats_ = stats;

    if (runs.size() > 1) {
        inform("campaign: %zu runs in %.2fs (%.1f sims/s; "
               "%zu simulated, %zu disk hits, %zu uncacheable)",
               stats.runs, stats.wallMs / 1000.0, stats.simsPerSec(),
               stats.simulated, stats.diskHits, stats.uncacheable);
        if (stats.failed || stats.timedOut || stats.skipped ||
            stats.retried || stats.quarantined ||
            stats.quarantineEvicted) {
            inform("campaign health: %zu failed, %zu timed out, "
                   "%zu skipped, %zu retried, %zu cache entries "
                   "quarantined, %zu quarantine files aged out",
                   stats.failed, stats.timedOut, stats.skipped,
                   stats.retried, stats.quarantined,
                   stats.quarantineEvicted);
        }
    }
    return cr;
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
