/**
 * @file
 * Parallel campaign engine implementation: fingerprinting, the
 * CRC-protected on-disk run cache, the fault-isolated fan-out loop,
 * and the campaign journal (which doubles as the failure manifest).
 */

#include "sim/campaign_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
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
#include "trace/spec_suite.hh"

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

// ---- campaign journal ------------------------------------------------

/**
 * Write @p cr, the outcome of @p runs, as the campaign journal at
 * cfg.journalPath: one row per run, in run-list order. Serialized to
 * memory and published atomically, so a process killed mid-write
 * leaves either the previous complete journal or this one on disk,
 * never a torn file.
 */
void
writeJournal(const CampaignConfig &cfg,
             const std::vector<SimOptions> &runs,
             const CampaignResult &cr)
{
    const bool full = !cfg.journalDeterministic;
    std::ostringstream os;
    // The build stamp is provenance, like the timestamp: identical
    // code built twice (or from an archive, which stamps "unknown")
    // must still write identical deterministic journals.
    os << "{\"version\":" << kJournalFormatVersion;
    if (full) {
        os << ",\"commit\":\"" << buildCommit()
           << "\",\"generated_utc\":\"" << utcTimestamp() << '"';
    }
    os << ",\"results\":[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const SimOptions &opt = runs[i];
        const SimResult &r = cr.results[i];
        const RunOutcome &oc = cr.outcomes[i];
        os << (i ? "," : "") << "\n  {\"run\":\""
           << jsonEscapeString(runIdentity(opt)) << "\",\"status\":\""
           << runStatusName(oc.status) << '"';
        if (oc.ok()) {
            os << ",\"result\":";
            writeSimResultJson(os, r);
        } else {
            os << ",\"category\":\"" << runErrorCategoryName(oc.category)
               << "\",\"error\":\"" << jsonEscapeString(oc.error) << '"';
        }
        if (full) {
            // Warm-up plus measured instructions per wall second, as
            // perfbench counts them. A cache hit simulated nothing:
            // record 0 rather than a rate of the lookup latency.
            const double inst_per_s =
                oc.ok() && !oc.cached && oc.wallMs > 0.0
                ? static_cast<double>(opt.warmupInsts + r.instructions) /
                      (oc.wallMs / 1000.0)
                : 0.0;
            os << ",\"attempts\":" << oc.attempts
               << ",\"wall_ms\":" << doubleToken(oc.wallMs)
               << ",\"inst_per_s\":" << doubleToken(inst_per_s)
               << ",\"cached\":" << (oc.cached ? "true" : "false");
            if (opt.check != CheckMode::Off) {
                os << ",\"check\":\"" << checkModeName(opt.check)
                   << "\",\"oracle_loads\":" << r.oracleLoadsChecked
                   << ",\"oracle_stale\":" << r.oracleStaleCommits
                   << ",\"oracle_forbidden\":" << r.oracleForbidden;
            }
        }
        os << '}';
    }
    os << "\n]}\n";
    if (!writeFileAtomic(cfg.journalPath, os.str()))
        warn("cannot write bench journal '%s'", cfg.journalPath.c_str());
}

// ---- cooperative interruption ---------------------------------------

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
    item.identity = opt.benchmark + '|' + opt.scheme + '|' +
                    std::to_string(opt.configLevel);
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
CampaignRunner::runChecked(const std::vector<SimOptions> &runs)
{
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
                    const SimOptions &opt = runs[p.index];
                    id = runIdentity(opt);
                    // Run lifecycle span, labeled with the run
                    // identity (one interned name per distinct run)
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
                } else {
                    if (config_.failFast &&
                        oc.status != RunStatus::Skipped) {
                        abort_flag.store(true,
                                         std::memory_order_relaxed);
                    }
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
                const double budget = runs[p.index].timeoutMs;
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
        } else {
            oc.status = RunStatus::Skipped;
            oc.category = leader.category;
            oc.error = "duplicate of a failed run";
            oc.attempts = 0;
        }
        cr.outcomes[dst] = oc;
    }

    // ---- accounting --------------------------------------------------
    const std::vector<std::string> &fp_names = specFpNames();
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunOutcome &oc = cr.outcomes[i];
        if (!oc.ok()) {
            // Name the degraded slot so tables can still label its
            // row; valid=false keeps it out of aggregates. The lookup
            // tolerates unknown names: a run may have failed because
            // its benchmark doesn't exist.
            SimResult &r = cr.results[i] = SimResult{};
            r.benchmark = runs[i].benchmark;
            r.scheme = runs[i].scheme;
            r.configLevel = runs[i].configLevel;
            r.fp = std::find(fp_names.begin(), fp_names.end(),
                             r.benchmark) != fp_names.end();
            r.valid = false;
        }
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
    if (!config_.journalPath.empty())
        writeJournal(config_, runs, cr);
    return cr;
}

} // namespace dmdc
