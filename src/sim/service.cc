#include "sim/service.hh"

#include <cerrno>
#include <cmath>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/build_info.hh"
#include "common/logging.hh"
#include "sim/fault_injector.hh"
#include "sim/run_error.hh"
#include "common/trace_sink.hh"
#include "sim/ticket_log.hh"

namespace dmdc
{

namespace
{

/** Interned ids for the daemon's ticket lifecycle: submit/start/
 *  finish instants plus the drain transition, all on the "service"
 *  category. */
struct ServiceTrace
{
    TraceCategory &cat = traceCategory("service");
    std::uint16_t submit = traceNameId("ticket-submit");
    std::uint16_t start = traceNameId("ticket-start");
    std::uint16_t finish = traceNameId("ticket-finish");
    std::uint16_t revive = traceNameId("ticket-revive");
    std::uint16_t drain = traceNameId("drain");
};

ServiceTrace &
serviceTrace()
{
    static ServiceTrace ids;
    return ids;
}

// ---- deadline-aware socket I/O ---------------------------------------

/** An absolute I/O deadline; disabled when built from timeoutMs <= 0. */
struct Deadline
{
    bool enabled = false;
    std::chrono::steady_clock::time_point at{};

    static Deadline
    in(int timeoutMs)
    {
        Deadline d;
        if (timeoutMs > 0) {
            d.enabled = true;
            d.at = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(timeoutMs);
        }
        return d;
    }

    bool
    expired() const
    {
        return enabled && std::chrono::steady_clock::now() >= at;
    }

    /** Remaining time as a poll() timeout: -1 = wait forever. */
    int
    pollMs() const
    {
        if (!enabled)
            return -1;
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                at - std::chrono::steady_clock::now())
                .count();
        if (left <= 0)
            return 0;
        return left > 60000 ? 60000 : static_cast<int>(left);
    }
};

/** Park until @p fd is ready for @p events or the deadline passes.
 *  EINTR restarts the wait against the same absolute deadline, so a
 *  signal storm cannot extend it. */
bool
waitReady(int fd, short events, const Deadline &dl, std::string &err)
{
    for (;;) {
        if (dl.expired()) {
            err = "timed out";
            return false;
        }
        pollfd pfd{fd, events, 0};
        const int rc = ::poll(&pfd, 1, dl.pollMs());
        if (rc > 0)
            return true; // ready (or HUP/ERR: let read/write report)
        if (rc == 0) {
            if (!dl.enabled)
                continue;
            err = "timed out";
            return false;
        }
        if (errno == EINTR)
            continue;
        err = std::string("poll failed: ") + std::strerror(errno);
        return false;
    }
}

/**
 * Read exactly @p len bytes before the deadline. Non-blocking recv
 * rounds with poll in between keep this EINTR-proof and immune to a
 * peer that trickles bytes: the deadline is absolute, not per-call.
 */
bool
readExact(int fd, void *buf, std::size_t len, const Deadline &dl,
          bool &eofAtStart, std::string &err)
{
    auto *p = static_cast<unsigned char *>(buf);
    std::size_t got = 0;
    eofAtStart = false;
    while (got < len) {
        const ssize_t n = ::recv(fd, p + got, len - got, MSG_DONTWAIT);
        if (n > 0) {
            got += static_cast<std::size_t>(n);
            continue;
        }
        if (n == 0) {
            eofAtStart = (got == 0);
            err = eofAtStart ? "" : "connection closed mid-frame";
            return false;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (!waitReady(fd, POLLIN, dl, err)) {
                if (err == "timed out")
                    err = "read timed out";
                return false;
            }
            continue;
        }
        err = std::string("read failed: ") + std::strerror(errno);
        return false;
    }
    return true;
}

/**
 * Write exactly @p len bytes before the deadline. MSG_NOSIGNAL turns
 * a vanished peer into EPIPE instead of killing the process — the
 * daemon must outlive any client's death mid-reply.
 */
bool
writeExact(int fd, const void *buf, std::size_t len, const Deadline &dl,
           std::string &err)
{
    const auto *p = static_cast<const unsigned char *>(buf);
    std::size_t put = 0;
    while (put < len) {
        const ssize_t n = ::send(fd, p + put, len - put,
                                 MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n > 0) {
            put += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (!waitReady(fd, POLLOUT, dl, err)) {
                if (err == "timed out")
                    err = "write timed out";
                return false;
            }
            continue;
        }
        err = std::string("write failed: ") + std::strerror(errno);
        return false;
    }
    return true;
}

void
encodeFrameHeader(std::uint32_t len, unsigned char hdr[4])
{
    hdr[0] = static_cast<unsigned char>(len >> 24);
    hdr[1] = static_cast<unsigned char>(len >> 16);
    hdr[2] = static_cast<unsigned char>(len >> 8);
    hdr[3] = static_cast<unsigned char>(len);
}

// ---- reply/JSON helpers ----------------------------------------------

std::string
errorReply(const std::string &message)
{
    return "{\"ok\":false,\"error\":\"" + jsonEscapeString(message) +
           "\"}";
}

/** An error reply with a machine-readable code and retry contract. */
std::string
errorReplyCode(const char *code, const std::string &message,
               bool retryable, int retryAfterMs)
{
    std::ostringstream os;
    os << "{\"ok\":false,\"error\":\"" << jsonEscapeString(message)
       << "\",\"code\":\"" << code
       << "\",\"retryable\":" << (retryable ? "true" : "false");
    if (retryAfterMs > 0)
        os << ",\"retry_after_ms\":" << retryAfterMs;
    os << '}';
    return os.str();
}

bool
fieldString(const JsonValue &obj, const char *key, std::string &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind != JsonValue::Kind::String)
        return false;
    out = v->text;
    return true;
}

bool
fieldU64(const JsonValue &obj, const char *key, std::uint64_t &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind != JsonValue::Kind::Number)
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long n =
        std::strtoull(v->text.c_str(), &end, 10);
    if (errno == ERANGE || end != v->text.c_str() + v->text.size())
        return false;
    out = n;
    return true;
}

bool
fieldDouble(const JsonValue &obj, const char *key, double &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind != JsonValue::Kind::Number)
        return false;
    errno = 0;
    char *end = nullptr;
    const double d = std::strtod(v->text.c_str(), &end);
    // The parser accepts nan/inf tokens; no spec field may be one.
    if (errno == ERANGE || end != v->text.c_str() + v->text.size() ||
        !std::isfinite(d))
        return false;
    out = d;
    return true;
}

bool
fieldBool(const JsonValue &obj, const char *key, bool &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind != JsonValue::Kind::Bool)
        return false;
    out = v->boolean;
    return true;
}

int
connectUnixSocket(const std::string &path, std::string &err)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        err = "socket path too long: " + path;
        return -1;
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        err = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        err = "cannot connect to '" + path + "': " +
              std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

std::int64_t
steadyNowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

// ---- frame I/O -------------------------------------------------------

bool
writeFrameTimed(int fd, const std::string &payload, int timeoutMs,
                std::string &err)
{
    if (payload.size() > kServiceMaxFrame) {
        err = "frame payload too large";
        return false;
    }
    unsigned char hdr[4];
    encodeFrameHeader(static_cast<std::uint32_t>(payload.size()), hdr);
    const Deadline dl = Deadline::in(timeoutMs);
    return writeExact(fd, hdr, sizeof(hdr), dl, err) &&
           writeExact(fd, payload.data(), payload.size(), dl, err);
}

bool
writeFrame(int fd, const std::string &payload, std::string &err)
{
    return writeFrameTimed(fd, payload, 0, err);
}

bool
readFrameTimed(int fd, std::string &out, int headerTimeoutMs,
               int bodyTimeoutMs, std::string &err)
{
    // The first byte may be a long wait (an idle peer between
    // requests); everything after it belongs to a frame the peer
    // already committed to and must arrive promptly.
    unsigned char hdr[4];
    bool eof = false;
    if (!readExact(fd, hdr, 1, Deadline::in(headerTimeoutMs), eof,
                   err))
        return false;
    const Deadline body = Deadline::in(bodyTimeoutMs);
    if (!readExact(fd, hdr + 1, sizeof(hdr) - 1, body, eof, err)) {
        if (err.empty())
            err = "connection closed mid-frame";
        return false;
    }
    const std::uint32_t len =
        (static_cast<std::uint32_t>(hdr[0]) << 24) |
        (static_cast<std::uint32_t>(hdr[1]) << 16) |
        (static_cast<std::uint32_t>(hdr[2]) << 8) |
        static_cast<std::uint32_t>(hdr[3]);
    if (len > kServiceMaxFrame) {
        err = "frame length " + std::to_string(len) +
              " exceeds the protocol maximum";
        return false;
    }
    out.resize(len);
    if (len == 0)
        return true;
    if (!readExact(fd, &out[0], len, body, eof, err)) {
        if (err.empty())
            err = "connection closed mid-frame";
        return false;
    }
    return true;
}

bool
readFrame(int fd, std::string &out, std::string &err)
{
    return readFrameTimed(fd, out, 0, 0, err);
}

// ---- handshake -------------------------------------------------------

ServiceIdentity
localServiceIdentity()
{
    ServiceIdentity id;
    id.commit = buildCommit();
    id.cacheFormat = kCacheFormatVersion;
    id.policyRevision = policySourceFingerprint();
    return id;
}

// ---- run spec --------------------------------------------------------

std::string
serviceRunSpecJson(const SimOptions &opt)
{
    std::ostringstream os;
    os << "{\"benchmark\":\"" << jsonEscapeString(opt.benchmark)
       << "\",\"scheme\":\"" << jsonEscapeString(opt.scheme)
       << "\",\"config\":" << opt.configLevel
       << ",\"warmup\":" << opt.warmupInsts
       << ",\"insts\":" << opt.runInsts
       << ",\"inv\":"
       << doubleToken(opt.invalidationsPer1kCycles)
       << ",\"coherence\":" << (opt.coherence ? "true" : "false")
       << ",\"safe_loads\":" << (opt.safeLoads ? "true" : "false")
       << ",\"sq_filter\":" << (opt.sqFilter ? "true" : "false")
       << ",\"yla\":" << opt.numYlaQw
       << ",\"table\":" << opt.tableEntriesOverride
       << ",\"queue\":" << opt.queueEntries
       << ",\"stall_limit\":" << opt.stallCycleLimit << '}';
    return os.str();
}

bool
parseServiceRunSpec(const JsonValue &spec, SimOptions &out,
                    std::string &err)
{
    if (spec.kind != JsonValue::Kind::Object) {
        err = "run spec is not a JSON object";
        return false;
    }
    out = SimOptions{};
    if (!fieldString(spec, "benchmark", out.benchmark) ||
        !fieldString(spec, "scheme", out.scheme)) {
        err = "run spec needs string 'benchmark' and 'scheme' fields";
        return false;
    }
    std::uint64_t u = 0;
    if (fieldU64(spec, "config", u))
        out.configLevel = static_cast<unsigned>(u);
    if (fieldU64(spec, "warmup", u))
        out.warmupInsts = u;
    if (fieldU64(spec, "insts", u))
        out.runInsts = u;
    if (fieldU64(spec, "yla", u))
        out.numYlaQw = static_cast<unsigned>(u);
    if (fieldU64(spec, "table", u))
        out.tableEntriesOverride = static_cast<unsigned>(u);
    if (fieldU64(spec, "queue", u))
        out.queueEntries = static_cast<unsigned>(u);
    if (fieldU64(spec, "stall_limit", u))
        out.stallCycleLimit = u;
    double d = 0.0;
    if (fieldDouble(spec, "inv", d))
        out.invalidationsPer1kCycles = d;
    bool b = false;
    if (fieldBool(spec, "coherence", b))
        out.coherence = b;
    if (fieldBool(spec, "safe_loads", b))
        out.safeLoads = b;
    if (fieldBool(spec, "sq_filter", b))
        out.sqFilter = b;
    return true;
}

// ---- daemon ----------------------------------------------------------

/**
 * All mutable daemon state lives here, behind one mutex. Simulation
 * happens outside the lock; everything else (ticket dedup, campaign
 * bookkeeping, journal assembly, ticket-log appends) is cheap and
 * stays inside it.
 */
struct ServiceDaemon::Impl
{
    /** One deduplicated unit of work: every campaign that submits a
     *  run with this cache key shares this ticket. */
    struct Ticket
    {
        SimOptions opt;
        std::string key;      ///< cacheKey(opt)
        std::string spec;     ///< serviceRunSpecJson(opt)
        std::string identity; ///< journal identity (co-location key)
        int activeRefs = 0;   ///< references from live campaigns
        bool done = false;
        bool ran = false;     ///< executed (vs. skipped/cancelled)
        bool startedRun = false;
        bool finishLogged = false;
        SimResult result;
        RunOutcome outcome;
    };

    struct Campaign
    {
        std::vector<std::size_t> runTickets; ///< per submitted run
        bool cancelled = false;
        unsigned holders = 0;        ///< connections holding this id
        std::int64_t detachedAtMs = 0; ///< when holders last hit 0
    };

    /** One accepted connection: its socket, its thread, and the
     *  campaign ids it holds (touched by its thread only). */
    struct Conn
    {
        int fd = -1;
        unsigned ordinal = 0; ///< accept order (fault-site attempt)
        std::thread thread;
        std::atomic<bool> finished{false};
        std::unordered_set<std::string> held;
    };

    explicit Impl(ServiceDaemon &owner) : daemon(owner) {}

    ServiceDaemon &daemon;

    std::mutex m;
    std::condition_variable workCv; ///< workers: new ticket queued
    std::condition_variable doneCv; ///< waiters: a ticket completed

    std::vector<std::unique_ptr<Ticket>> tickets;
    std::unordered_map<std::string, std::size_t> ticketByKey;
    std::unordered_map<std::string, Campaign> campaigns;
    unsigned nextCampaignId = 1;
    std::size_t queued = 0; ///< tickets submitted, not yet claimed
    bool draining = false;  ///< stop accepted; skip queued tickets

    std::unique_ptr<RunScheduler> sched;
    std::vector<std::thread> workers;
    std::vector<std::unique_ptr<Conn>> connections;
    std::unordered_set<int> liveFds; ///< open connection sockets
    int listenFd = -1;
    unsigned acceptCounter = 0;

    TicketLog ticketLog{""};
    std::uint64_t ticketAppends = 0;

    ServiceStats stats;

    // ---- durable tickets ----

    std::vector<PendingTicket>
    unfinishedTicketsLocked() const
    {
        std::vector<PendingTicket> pending;
        for (const auto &t : tickets) {
            if (!t->finishLogged)
                pending.push_back({t->key, t->spec, t->startedRun});
        }
        return pending;
    }

    /** Count one log append and fold the log when finished history
     *  dominates live work. */
    void
    noteTicketAppendLocked()
    {
        ++ticketAppends;
        std::size_t live = 0;
        for (const auto &t : tickets) {
            if (!t->finishLogged)
                ++live;
        }
        if (ticketLog.shouldCompact(ticketAppends, live) &&
            ticketLog.compact(unfinishedTicketsLocked()))
            ticketAppends = 0;
    }

    // ---- campaign holders / orphan reaping ----

    void
    attachCampaignLocked(Conn &conn, const std::string &id)
    {
        if (!conn.held.insert(id).second)
            return;
        auto it = campaigns.find(id);
        if (it != campaigns.end())
            ++it->second.holders;
    }

    void
    detachCampaignsLocked(Conn &conn)
    {
        for (const std::string &id : conn.held) {
            auto it = campaigns.find(id);
            if (it == campaigns.end())
                continue;
            if (it->second.holders > 0 &&
                --it->second.holders == 0)
                it->second.detachedAtMs = steadyNowMs();
        }
        conn.held.clear();
    }

    /**
     * Cancel incomplete campaigns no connection has held for the
     * grace period (their tickets would otherwise occupy workers for
     * a client that is gone), and forget completed ones (their
     * results live in the cache; the id is not a durable name).
     */
    void
    reapOrphansLocked()
    {
        const int grace = daemon.options_.orphanGraceMs;
        if (grace <= 0)
            return;
        const std::int64_t now = steadyNowMs();
        bool cancelledAny = false;
        for (auto it = campaigns.begin(); it != campaigns.end();) {
            Campaign &c = it->second;
            if (c.holders > 0 || now - c.detachedAtMs < grace) {
                ++it;
                continue;
            }
            const bool complete = c.cancelled ||
                completedLocked(c) == c.runTickets.size();
            if (!complete) {
                c.cancelled = true;
                for (std::size_t idx : c.runTickets) {
                    if (tickets[idx]->activeRefs > 0)
                        --tickets[idx]->activeRefs;
                }
                ++stats.orphaned;
                cancelledAny = true;
                // Keep the cancelled record queryable for one more
                // grace period before forgetting the id.
                c.detachedAtMs = now;
                if (daemon.options_.verbose)
                    inform("serve: orphaned campaign %s cancelled",
                           it->first.c_str());
                ++it;
            } else {
                it = campaigns.erase(it);
            }
        }
        if (cancelledAny)
            doneCv.notify_all();
    }

    // ---- worker pool ----

    void
    workerLoop(unsigned w)
    {
        // Each worker owns a single-threaded CampaignRunner over the
        // shared cache directory: CacheStore instances coordinate via
        // the index lock exactly as separate processes would, and
        // cross-campaign dedup is the ticket map's job, not the
        // runner's memo cache's.
        CampaignConfig wc = daemon.options_.campaign;
        wc.jobs = 1;
        wc.scheduler = SchedulerKind::StaticLpt;
        wc.shard = ShardSpec{};
        wc.failFast = false;
        CampaignRunner runner(wc);
        traceSetThreadName("serve-worker-" + std::to_string(w));

        for (;;) {
            ScheduledRun item;
            {
                std::unique_lock<std::mutex> lock(m);
                workCv.wait(lock, [&] {
                    return queued > 0 || daemon.stopRequested_.load();
                });
                if (queued == 0)
                    return; // stopping and drained
                --queued;
            }
            if (!sched->next(w, item)) {
                // A stale size hint made the claim miss; put it back
                // and retry (the mutex round-trip resynchronizes).
                std::lock_guard<std::mutex> lock(m);
                ++queued;
                continue;
            }
            executeTicket(runner, item.index);
        }
    }

    void
    executeTicket(CampaignRunner &runner, std::size_t idx)
    {
        Ticket *t = nullptr;
        bool skip = false;
        bool cancelled = false;
        {
            std::lock_guard<std::mutex> lock(m);
            t = tickets[idx].get();
            cancelled = (t->activeRefs == 0);
            skip = cancelled || draining;
            if (!skip && !t->startedRun) {
                t->startedRun = true;
                ticketLog.appendStart(t->key);
                noteTicketAppendLocked();
                traceInstantArg(serviceTrace().cat,
                                serviceTrace().start, idx);
            }
        }
        SimResult result;
        RunOutcome outcome;
        if (skip) {
            outcome.status = RunStatus::Skipped;
            outcome.category = RunErrorCategory::SimInvariant;
            outcome.error = cancelled ? "campaign cancelled"
                                      : "daemon shutting down";
        } else {
            const CampaignResult cr = runner.runChecked({t->opt});
            result = cr.results.front();
            outcome = cr.outcomes.front();
        }
        bool crashAfter = false;
        {
            std::lock_guard<std::mutex> lock(m);
            if (skip && cancelled && !draining && t->activeRefs > 0) {
                // The cancelled claim raced a fresh submit that wants
                // this ticket after all: requeue it rather than
                // publishing a skip nobody asked for.
                ScheduledRun item;
                item.index = idx;
                item.identity = t->identity;
                item.cost = static_cast<double>(
                    t->opt.warmupInsts + t->opt.runInsts);
                sched->submit(std::move(item));
                ++queued;
                workCv.notify_one();
                return;
            }
            t->result = std::move(result);
            t->outcome = std::move(outcome);
            t->ran = !skip;
            t->done = true;
            if (!skip) {
                ++stats.executed;
                if (!t->outcome.cached)
                    ++stats.simulated;
                // The finish record lands *after* the cache entry
                // (runChecked already returned): a crash between the
                // two replays the run, which the cache absorbs.
                t->finishLogged = true;
                ticketLog.appendFinish(t->key,
                                       runStatusName(t->outcome.status));
                noteTicketAppendLocked();
                traceInstantArg(serviceTrace().cat,
                                serviceTrace().finish, idx);
                // The serve-crash chaos site follows the worker-*
                // progress rule: only after a freshly simulated run
                // is durably cached and its finish logged, so a
                // restart loop converges.
                if (!t->outcome.cached && t->outcome.ok() &&
                    FaultInjector::global().injectServeCrash(t->key))
                    crashAfter = true;
            } else if (cancelled) {
                // A cancelled ticket is terminal: log it so a restart
                // does not resurrect work nobody wants.
                t->finishLogged = true;
                ticketLog.appendFinish(t->key, "cancelled");
                noteTicketAppendLocked();
                traceInstantArg(serviceTrace().cat,
                                serviceTrace().finish, idx);
            }
            // Drain-skip: no finish record. The ticket stays pending
            // in the log and the next daemon completes it.
            if (daemon.options_.verbose) {
                inform("serve: %s -> %s%s", t->identity.c_str(),
                       runStatusName(t->outcome.status),
                       t->outcome.cached ? " (cached)" : "");
            }
        }
        doneCv.notify_all();
        if (crashAfter) {
            warn("serve: injected serve-crash after %s",
                 t->identity.c_str());
            std::raise(SIGKILL);
        }
    }

    /** Create (or dedup onto) the ticket for @p opt. Caller holds m
     *  and has validated the spec. */
    std::size_t
    internTicketLocked(SimOptions &&opt, bool &fresh)
    {
        const std::string key = cacheKey(opt);
        auto it = ticketByKey.find(key);
        if (it != ticketByKey.end()) {
            fresh = false;
            Ticket &t = *tickets[it->second];
            if (t.done && !t.ran) {
                // The ticket terminated as cancelled/skipped without
                // ever running. A new campaign wants it for real:
                // revive and requeue instead of serving the stale
                // skip.
                t.done = false;
                t.startedRun = false;
                t.finishLogged = false;
                t.outcome = RunOutcome{};
                ticketLog.appendSubmit(t.key, t.spec);
                noteTicketAppendLocked();
                traceInstantArg(serviceTrace().cat,
                                serviceTrace().revive, it->second);
                ScheduledRun item;
                item.index = it->second;
                item.identity = t.identity;
                item.cost = static_cast<double>(
                    t.opt.warmupInsts + t.opt.runInsts);
                sched->submit(std::move(item));
                ++queued;
                workCv.notify_one();
            }
            return it->second;
        }
        fresh = true;
        const std::size_t idx = tickets.size();
        auto t = std::make_unique<Ticket>();
        t->identity = journalIdentity(opt.benchmark, opt.scheme,
                                      opt.configLevel);
        t->key = key;
        t->spec = serviceRunSpecJson(opt);
        t->opt = std::move(opt);
        tickets.push_back(std::move(t));
        ticketByKey.emplace(key, idx);
        ++stats.unique;
        ticketLog.appendSubmit(key, tickets[idx]->spec);
        noteTicketAppendLocked();
        traceInstantArg(serviceTrace().cat, serviceTrace().submit, idx);
        ScheduledRun item;
        item.index = idx;
        item.identity = tickets[idx]->identity;
        item.cost = static_cast<double>(
            tickets[idx]->opt.warmupInsts + tickets[idx]->opt.runInsts);
        sched->submit(std::move(item));
        ++queued;
        workCv.notify_one();
        return idx;
    }

    // ---- op handlers (all return a serialized reply) ----

    std::string
    helloReply() const
    {
        const ServiceIdentity id = localServiceIdentity();
        std::ostringstream os;
        os << "{\"ok\":true,\"server\":\"dmdc_serve\",\"protocol\":"
           << kServiceProtocolVersion
           << ",\"commit\":\"" << jsonEscapeString(id.commit)
           << "\",\"cache_format\":" << id.cacheFormat
           << ",\"policy_revision\":\""
           << jsonEscapeString(id.policyRevision)
           << "\",\"pid\":" << static_cast<int>(::getpid()) << '}';
        return os.str();
    }

    std::string
    handleSubmit(const JsonValue &req, Conn &conn)
    {
        const JsonValue *runs = req.find("runs");
        if (!runs || runs->kind != JsonValue::Kind::Array ||
            runs->items.empty())
            return errorReply("submit needs a non-empty 'runs' array");

        // Validate every spec before touching shared state, so a bad
        // campaign is rejected whole.
        std::vector<SimOptions> opts;
        opts.reserve(runs->items.size());
        for (const JsonValue &item : runs->items) {
            SimOptions opt;
            std::string err;
            if (!parseServiceRunSpec(item, opt, err))
                return errorReply(err);
            try {
                validateSimOptions(opt);
            } catch (const RunError &e) {
                return errorReply(std::string("invalid run: ") +
                                  e.what());
            }
            opts.push_back(std::move(opt));
        }

        std::string id;
        {
            std::lock_guard<std::mutex> lock(m);
            if (draining)
                return errorReplyCode("draining",
                                      "daemon is shutting down",
                                      /*retryable=*/true, 1000);
            const std::size_t cap = daemon.options_.maxQueuedTickets;
            if (cap != 0 && queued + opts.size() > cap) {
                ++stats.overloaded;
                return errorReplyCode(
                    "overloaded",
                    "submit queue is full (" +
                        std::to_string(queued) + " queued, cap " +
                        std::to_string(cap) + ")",
                    /*retryable=*/true, 1000);
            }
            id = "c" + std::to_string(nextCampaignId++);
            Campaign &c = campaigns[id];
            for (SimOptions &opt : opts) {
                ++stats.submitted;
                bool fresh = false;
                const std::size_t idx =
                    internTicketLocked(std::move(opt), fresh);
                if (!fresh)
                    ++stats.dedupHits;
                ++tickets[idx]->activeRefs;
                c.runTickets.push_back(idx);
            }
            ++stats.campaigns;
            c.holders = 1;
            conn.held.insert(id);
        }
        return "{\"ok\":true,\"campaign\":\"" + id + "\",\"runs\":" +
               std::to_string(opts.size()) + "}";
    }

    /** Campaign lookup; fills an error @p reply when unknown. The
     *  looked-up campaign is attached to @p conn: as long as the
     *  connection lives, the orphan reaper keeps its hands off. */
    Campaign *
    findCampaignLocked(const JsonValue &req, Conn &conn,
                       std::string &reply)
    {
        std::string id;
        if (!fieldString(req, "campaign", id)) {
            reply = errorReply("missing 'campaign' field");
            return nullptr;
        }
        auto it = campaigns.find(id);
        if (it == campaigns.end()) {
            reply = errorReply("unknown campaign '" + id + "'");
            return nullptr;
        }
        if (conn.held.insert(id).second)
            ++it->second.holders;
        return &it->second;
    }

    std::size_t
    completedLocked(const Campaign &c) const
    {
        std::size_t n = 0;
        for (std::size_t idx : c.runTickets) {
            if (tickets[idx]->done)
                ++n;
        }
        return n;
    }

    std::string
    handleStatus(const JsonValue &req, Conn &conn)
    {
        std::lock_guard<std::mutex> lock(m);
        std::string reply;
        const Campaign *c = findCampaignLocked(req, conn, reply);
        if (!c)
            return reply;
        const std::size_t done = completedLocked(*c);
        const char *state = c->cancelled ? "cancelled"
            : done == c->runTickets.size() ? "done" : "running";
        return std::string("{\"ok\":true,\"state\":\"") + state +
               "\",\"completed\":" + std::to_string(done) +
               ",\"total\":" + std::to_string(c->runTickets.size()) +
               "}";
    }

    std::string
    buildJournalLocked(const Campaign &c) const
    {
        // One entry per *submitted* run: a campaign that lists the
        // same triple twice journals it twice (sharing one ticket's
        // result), exactly as a serial campaign's memo cache would.
        ShardJournal j;
        j.version = kJournalFormatVersion;
        j.commit = buildCommit();
        j.entries.reserve(c.runTickets.size());
        for (std::size_t idx : c.runTickets) {
            const Ticket &t = *tickets[idx];
            JournalEntry e;
            e.benchmark = t.opt.benchmark;
            e.scheme = t.opt.scheme;
            e.config = t.opt.configLevel;
            e.status = t.outcome.status;
            if (t.outcome.ok()) {
                e.ipcToken = doubleToken(t.result.ipc);
                e.cyclesToken = std::to_string(t.result.cycles);
            } else {
                e.category = runErrorCategoryName(t.outcome.category);
                e.error = t.outcome.error;
            }
            j.entries.push_back(std::move(e));
        }
        std::ostringstream os;
        writeMergedJournal(os, j);
        return os.str();
    }

    std::string
    handleResults(const JsonValue &req, Conn &conn)
    {
        bool wait = false;
        fieldBool(req, "wait", wait);
        std::unique_lock<std::mutex> lock(m);
        std::string reply;
        Campaign *c = findCampaignLocked(req, conn, reply);
        if (!c)
            return reply;
        if (wait) {
            doneCv.wait(lock, [&] {
                return c->cancelled || draining ||
                       completedLocked(*c) == c->runTickets.size();
            });
        }
        if (c->cancelled)
            return errorReply("campaign was cancelled");
        const std::size_t done = completedLocked(*c);
        if (done != c->runTickets.size()) {
            if (draining)
                return errorReplyCode("draining",
                                      "daemon is shutting down",
                                      /*retryable=*/true, 1000);
            return "{\"ok\":true,\"state\":\"running\","
                   "\"completed\":" + std::to_string(done) +
                   ",\"total\":" +
                   std::to_string(c->runTickets.size()) + "}";
        }
        return "{\"ok\":true,\"state\":\"done\",\"journal\":\"" +
               jsonEscapeString(buildJournalLocked(*c)) + "\"}";
    }

    std::string
    handleCancel(const JsonValue &req, Conn &conn)
    {
        std::lock_guard<std::mutex> lock(m);
        std::string reply;
        Campaign *c = findCampaignLocked(req, conn, reply);
        if (!c)
            return reply;
        if (!c->cancelled) {
            c->cancelled = true;
            for (std::size_t idx : c->runTickets) {
                if (tickets[idx]->activeRefs > 0)
                    --tickets[idx]->activeRefs;
            }
        }
        doneCv.notify_all();
        return "{\"ok\":true,\"cancelled\":true}";
    }

    std::string
    handleStats()
    {
        std::lock_guard<std::mutex> lock(m);
        std::ostringstream os;
        os << "{\"ok\":true,\"campaigns\":" << stats.campaigns
           << ",\"submitted\":" << stats.submitted
           << ",\"unique\":" << stats.unique
           << ",\"dedup_hits\":" << stats.dedupHits
           << ",\"executed\":" << stats.executed
           << ",\"simulated\":" << stats.simulated
           << ",\"recovered\":" << stats.recovered
           << ",\"overloaded\":" << stats.overloaded
           << ",\"orphaned\":" << stats.orphaned
           << ",\"io_timeouts\":" << stats.ioTimeouts
           << ",\"protocol_errors\":" << stats.protocolErrors << '}';
        return os.str();
    }

    void
    bumpStatLocked(std::uint64_t ServiceStats::*field)
    {
        std::lock_guard<std::mutex> lock(m);
        ++(stats.*field);
    }

    std::string
    dispatch(const std::string &text, Conn &conn)
    {
        JsonValue req;
        std::string err;
        if (!parseJson(text, req, err)) {
            bumpStatLocked(&ServiceStats::protocolErrors);
            return errorReplyCode("protocol",
                                  "malformed request: " + err,
                                  /*retryable=*/false, 0);
        }
        std::string op;
        if (!fieldString(req, "op", op)) {
            bumpStatLocked(&ServiceStats::protocolErrors);
            return errorReplyCode("protocol",
                                  "request has no 'op' field",
                                  /*retryable=*/false, 0);
        }
        if (op == "hello")
            return helloReply();
        if (op == "submit")
            return handleSubmit(req, conn);
        if (op == "status")
            return handleStatus(req, conn);
        if (op == "results")
            return handleResults(req, conn);
        if (op == "cancel")
            return handleCancel(req, conn);
        if (op == "stats")
            return handleStats();
        if (op == "shutdown") {
            daemon.requestStop();
            {
                std::lock_guard<std::mutex> lock(m);
                draining = true;
            }
            traceInstant(serviceTrace().cat, serviceTrace().drain);
            workCv.notify_all();
            doneCv.notify_all();
            return "{\"ok\":true,\"stopping\":true}";
        }
        bumpStatLocked(&ServiceStats::protocolErrors);
        return errorReplyCode("protocol", "unknown op '" + op + "'",
                              /*retryable=*/false, 0);
    }

    void
    connectionLoop(Conn &conn)
    {
        const int fd = conn.fd;
        const int ioMs = daemon.options_.ioTimeoutMs;
        for (;;) {
            std::string text;
            std::string err;
            // The header wait is unbounded — an idle client between
            // requests is healthy and drain's shutdown(fd) wakes the
            // read — but a started frame must finish within the I/O
            // deadline.
            if (!readFrameTimed(fd, text, /*headerTimeoutMs=*/0, ioMs,
                                err)) {
                if (err.empty())
                    break; // clean disconnect
                const bool timedOut =
                    err.find("timed out") != std::string::npos;
                const bool framing =
                    err.find("protocol maximum") != std::string::npos ||
                    err.find("mid-frame") != std::string::npos;
                if (timedOut)
                    bumpStatLocked(&ServiceStats::ioTimeouts);
                else if (framing)
                    bumpStatLocked(&ServiceStats::protocolErrors);
                if (daemon.options_.verbose)
                    warn("serve: %s", err.c_str());
                // An oversize length prefix is diagnosable: tell the
                // peer before hanging up (the stream cannot be
                // resynchronized, so the connection must die).
                if (err.find("protocol maximum") != std::string::npos) {
                    std::string werr;
                    writeFrameTimed(
                        fd,
                        errorReplyCode("protocol", err,
                                       /*retryable=*/false, 0),
                        2000, werr);
                }
                break;
            }
            const std::string reply = dispatch(text, conn);
            if (FaultInjector::global().injectFrameTruncate(
                    text, conn.ordinal)) {
                // Chaos: emit a torn reply — full header, half the
                // payload — then sever, exercising the client's
                // mid-frame EOF path.
                warn("serve: injected frame-truncate on connection %u",
                     conn.ordinal);
                unsigned char hdr[4];
                encodeFrameHeader(
                    static_cast<std::uint32_t>(reply.size()), hdr);
                const Deadline dl = Deadline::in(ioMs);
                std::string werr;
                if (writeExact(fd, hdr, sizeof(hdr), dl, werr))
                    writeExact(fd, reply.data(), reply.size() / 2, dl,
                               werr);
                break;
            }
            if (!writeFrameTimed(fd, reply, ioMs, err)) {
                if (err.find("timed out") != std::string::npos)
                    bumpStatLocked(&ServiceStats::ioTimeouts);
                if (daemon.options_.verbose)
                    warn("serve: %s", err.c_str());
                break;
            }
        }
        {
            std::lock_guard<std::mutex> lock(m);
            detachCampaignsLocked(conn);
            liveFds.erase(fd);
        }
        ::close(fd);
        conn.finished.store(true);
    }
};

ServiceDaemon::ServiceDaemon(ServiceOptions options)
    : options_(std::move(options)), impl_(new Impl(*this))
{
}

ServiceDaemon::~ServiceDaemon()
{
    delete impl_;
}

ServiceStats
ServiceDaemon::statsSnapshot() const
{
    std::lock_guard<std::mutex> lock(impl_->m);
    return impl_->stats;
}

bool
ServiceDaemon::start(std::string &err)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socketPath.size() >= sizeof(addr.sun_path)) {
        err = "socket path too long: " + options_.socketPath;
        return false;
    }
    std::strncpy(addr.sun_path, options_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    // Probe an existing socket file before reclaiming it: a crashed
    // daemon leaves a dead socket (connect fails) that is safe to
    // unlink, but blindly unlinking would silently hijack a *live*
    // daemon's path and split clients across two daemons.
    struct stat st{};
    if (::lstat(options_.socketPath.c_str(), &st) == 0) {
        if (!S_ISSOCK(st.st_mode)) {
            err = "'" + options_.socketPath +
                  "' exists and is not a socket; refusing to replace "
                  "it";
            return false;
        }
        std::string probeErr;
        const int probe =
            connectUnixSocket(options_.socketPath, probeErr);
        if (probe >= 0) {
            ::close(probe);
            err = "socket '" + options_.socketPath +
                  "' is already served by a live daemon";
            return false;
        }
        if (options_.verbose)
            inform("serve: reclaiming stale socket %s",
                   options_.socketPath.c_str());
        ::unlink(options_.socketPath.c_str());
    }

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 16) != 0) {
        err = "cannot listen on '" + options_.socketPath + "': " +
              std::strerror(errno);
        ::close(fd);
        return false;
    }
    impl_->listenFd = fd;

    const unsigned n = options_.workers
        ? options_.workers : defaultWorkerCount();
    impl_->sched = makeRunScheduler(SchedulerKind::WorkStealing);
    impl_->sched->seed({}, n);

    // Replay the durable ticket log before the workers spawn: every
    // submit without a finish is work a previous daemon accepted but
    // never completed, and a client may reconnect expecting it.
    if (options_.durableTickets && options_.campaign.useCache &&
        !options_.campaign.cacheDir.empty()) {
        impl_->ticketLog = TicketLog(options_.campaign.cacheDir);
        const TicketLogReplay rep = impl_->ticketLog.replay();
        if (rep.corrupt > 0)
            warn("serve: ticket log: skipped %zu damaged record(s)",
                 rep.corrupt);
        for (const PendingTicket &p : rep.pending) {
            JsonValue spec;
            SimOptions opt;
            std::string perr;
            if (!parseJson(p.spec, spec, perr) ||
                !parseServiceRunSpec(spec, opt, perr)) {
                warn("serve: ticket log: unreadable spec for %s: %s",
                     p.key.c_str(), perr.c_str());
                continue;
            }
            try {
                validateSimOptions(opt);
            } catch (const RunError &e) {
                warn("serve: ticket log: invalid spec for %s: %s",
                     p.key.c_str(), e.what());
                continue;
            }
            std::lock_guard<std::mutex> lock(impl_->m);
            bool fresh = false;
            const std::size_t idx =
                impl_->internTicketLocked(std::move(opt), fresh);
            if (!fresh)
                continue; // duplicate log records
            // One daemon-owned reference: the recovered ticket is not
            // part of any live campaign, but it must execute rather
            // than be skipped as cancelled.
            ++impl_->tickets[idx]->activeRefs;
            impl_->tickets[idx]->startedRun = p.started;
            ++impl_->stats.recovered;
        }
        // Fold the replayed history down to just the pending records.
        {
            std::lock_guard<std::mutex> lock(impl_->m);
            if (impl_->ticketLog.compact(
                    impl_->unfinishedTicketsLocked()))
                impl_->ticketAppends = 0;
        }
        if (options_.verbose && impl_->stats.recovered > 0)
            inform("serve: recovered %llu unfinished ticket(s) from "
                   "the ticket log",
                   static_cast<unsigned long long>(
                       impl_->stats.recovered));
    }

    impl_->workers.reserve(n);
    for (unsigned w = 0; w < n; ++w)
        impl_->workers.emplace_back([this, w] {
            impl_->workerLoop(w);
        });
    if (options_.verbose) {
        inform("serve: listening on %s with %u workers",
               options_.socketPath.c_str(), n);
    }
    return true;
}

int
ServiceDaemon::serve()
{
    // Poll-with-timeout accept loop so requestStop() (signal handler
    // or a client's shutdown op) is noticed promptly. Each tick also
    // reaps finished connection threads and orphaned campaigns.
    while (!stopRequested_.load()) {
        {
            std::lock_guard<std::mutex> lock(impl_->m);
            impl_->reapOrphansLocked();
        }
        for (auto it = impl_->connections.begin();
             it != impl_->connections.end();) {
            if ((*it)->finished.load()) {
                (*it)->thread.join();
                it = impl_->connections.erase(it);
            } else {
                ++it;
            }
        }

        pollfd pfd{impl_->listenFd, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, 200);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: poll: %s", std::strerror(errno));
            break;
        }
        if (rc == 0 || !(pfd.revents & POLLIN))
            continue;
        const int fd = ::accept(impl_->listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: accept: %s", std::strerror(errno));
            continue;
        }
        if (options_.sendBufBytes > 0) {
            // Test hook: a small send buffer makes reply backpressure
            // (and the write deadline behind it) reachable without
            // multi-megabyte journals.
            const int v = options_.sendBufBytes;
            ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &v, sizeof(v));
        }

        bool refuse = false;
        {
            std::lock_guard<std::mutex> lock(impl_->m);
            refuse = options_.maxConnections != 0 &&
                impl_->liveFds.size() >= options_.maxConnections;
            if (refuse)
                ++impl_->stats.overloaded;
            else
                impl_->liveFds.insert(fd);
        }
        if (refuse) {
            // One structured refusal, then hang up: the client backs
            // off and retries instead of queueing behind a full house.
            std::string werr;
            writeFrameTimed(
                fd,
                errorReplyCode("overloaded",
                               "connection limit reached",
                               /*retryable=*/true, 500),
                2000, werr);
            ::close(fd);
            continue;
        }

        auto conn = std::make_unique<Impl::Conn>();
        conn->fd = fd;
        conn->ordinal = impl_->acceptCounter++;
        Impl::Conn *raw = conn.get();
        conn->thread = std::thread([this, raw] {
            impl_->connectionLoop(*raw);
        });
        impl_->connections.push_back(std::move(conn));
    }

    // Drain: no new work is accepted, queued tickets resolve as
    // Skipped (their ticket-log records stay pending so a future
    // daemon finishes them), workers finish their in-flight run and
    // exit.
    {
        std::lock_guard<std::mutex> lock(impl_->m);
        impl_->draining = true;
        traceInstant(serviceTrace().cat, serviceTrace().drain);
        // Unblock connection threads parked in readFrame().
        for (int fd : impl_->liveFds)
            ::shutdown(fd, SHUT_RDWR);
    }
    impl_->workCv.notify_all();
    impl_->doneCv.notify_all();
    for (std::thread &t : impl_->workers)
        t.join();
    impl_->doneCv.notify_all();
    for (auto &conn : impl_->connections)
        conn->thread.join();
    impl_->connections.clear();
    ::close(impl_->listenFd);
    ::unlink(options_.socketPath.c_str());
    if (options_.verbose) {
        const ServiceStats s = statsSnapshot();
        inform("serve: done: %llu campaigns, %llu runs (%llu unique, "
               "%llu dedup hits), %llu executed, %llu simulated, "
               "%llu recovered",
               static_cast<unsigned long long>(s.campaigns),
               static_cast<unsigned long long>(s.submitted),
               static_cast<unsigned long long>(s.unique),
               static_cast<unsigned long long>(s.dedupHits),
               static_cast<unsigned long long>(s.executed),
               static_cast<unsigned long long>(s.simulated),
               static_cast<unsigned long long>(s.recovered));
    }
    return 0;
}

// ---- client ----------------------------------------------------------

ServiceClient::~ServiceClient()
{
    close();
}

void
ServiceClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
ServiceClient::connectRaw(const std::string &socketPath,
                          std::string &err)
{
    close();
    lastCode_.clear();
    retryAfterMs_ = 0;
    fd_ = connectUnixSocket(socketPath, err);
    if (fd_ < 0) {
        lastCode_ = "io";
        return false;
    }
    return true;
}

bool
ServiceClient::connect(const std::string &socketPath, std::string &err)
{
    if (!connectRaw(socketPath, err))
        return false;
    JsonValue reply;
    if (!request("{\"op\":\"hello\"}", reply, err)) {
        close();
        return false;
    }
    std::uint64_t protocol = 0, cacheFormat = 0;
    if (!fieldU64(reply, "protocol", protocol) ||
        !fieldU64(reply, "cache_format", cacheFormat) ||
        !fieldString(reply, "commit", daemon_.commit) ||
        !fieldString(reply, "policy_revision",
                     daemon_.policyRevision)) {
        err = "daemon hello is missing handshake fields";
        lastCode_ = "protocol";
        close();
        return false;
    }
    daemon_.cacheFormat = static_cast<unsigned>(cacheFormat);

    // Refuse a daemon whose results would not be comparable to this
    // binary's (same rule the shard journal merger enforces).
    const ServiceIdentity mine = localServiceIdentity();
    if (protocol != kServiceProtocolVersion) {
        err = "daemon speaks protocol " + std::to_string(protocol) +
              ", this client expects " +
              std::to_string(kServiceProtocolVersion);
    } else if (daemon_.commit != mine.commit) {
        err = "daemon runs commit " + daemon_.commit +
              ", this client is " + mine.commit;
    } else if (daemon_.cacheFormat != mine.cacheFormat) {
        err = "daemon cache format " +
              std::to_string(daemon_.cacheFormat) + " != client " +
              std::to_string(mine.cacheFormat);
    } else if (daemon_.policyRevision != mine.policyRevision) {
        err = "daemon policy registry revision differs (" +
              daemon_.policyRevision + " vs " + mine.policyRevision +
              ")";
    } else {
        return true;
    }
    lastCode_ = "mismatch";
    close();
    return false;
}

bool
ServiceClient::connectWithRetry(const std::string &socketPath,
                                unsigned attempts, int baseDelayMs,
                                std::string &err)
{
    if (attempts == 0)
        attempts = 1;
    int delay = baseDelayMs > 0 ? baseDelayMs : 100;
    for (unsigned tried = 1; ; ++tried) {
        if (connect(socketPath, err))
            return true;
        // An identity mismatch is permanent: the daemon at this path
        // will never become this binary. Everything else (refused
        // connection while a daemon restarts, a daemon still binding,
        // an overloaded/draining refusal) deserves the backoff.
        if (lastCode_ == "mismatch" || tried >= attempts)
            return false;
        int sleepMs = delay;
        if (retryAfterMs_ > sleepMs)
            sleepMs = retryAfterMs_;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(sleepMs));
        delay = delay >= 5000 ? 5000 : delay * 2;
    }
}

bool
ServiceClient::request(const std::string &request, JsonValue &reply,
                       std::string &err)
{
    lastCode_.clear();
    retryAfterMs_ = 0;
    if (fd_ < 0) {
        err = "not connected";
        lastCode_ = "io";
        return false;
    }
    if (!writeFrame(fd_, request, err)) {
        lastCode_ = "io";
        close();
        return false;
    }
    if (FaultInjector::global().injectClientStall(request)) {
        // Chaos: model a consumer that goes quiet after asking — the
        // daemon's reply write must tolerate (or deadline out of) it.
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    std::string text;
    if (!readFrame(fd_, text, err)) {
        if (err.empty())
            err = "daemon closed the connection";
        lastCode_ = "io";
        close();
        return false;
    }
    if (!parseJson(text, reply, err)) {
        err = "malformed daemon reply: " + err;
        lastCode_ = "protocol";
        close();
        return false;
    }
    bool ok = false;
    if (!fieldBool(reply, "ok", ok)) {
        err = "daemon reply has no 'ok' field";
        lastCode_ = "protocol";
        close();
        return false;
    }
    if (!ok) {
        // A protocol-level refusal; the connection stays usable.
        if (!fieldString(reply, "error", err))
            err = "daemon refused the request";
        fieldString(reply, "code", lastCode_);
        std::uint64_t after = 0;
        if (fieldU64(reply, "retry_after_ms", after))
            retryAfterMs_ = static_cast<int>(after);
        return false;
    }
    return true;
}

} // namespace dmdc
