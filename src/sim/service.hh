/**
 * @file
 * Campaign service mode: the dmdc_serve daemon and its client.
 *
 * A daemon binds a Unix-domain socket and multiplexes campaigns from
 * any number of concurrent clients onto one shared work-stealing
 * worker pool. Every submitted run is deduplicated by its cache key
 * into a RunTicket: when two clients submit overlapping (benchmark,
 * scheme, config) work, the overlap is simulated exactly once and
 * both campaigns share the result. Per-campaign journals are
 * assembled through the same canonical serializer the shard merger
 * uses, so a journal retrieved over the socket is byte-identical to
 * the one a serial `dmdc_sim --json-deterministic` run writes.
 *
 * Wire protocol (version kServiceProtocolVersion): length-prefixed
 * JSON frames — a 4-byte big-endian payload length followed by one
 * JSON object. Requests carry an "op" field; replies carry "ok"
 * (bool) plus op-specific fields, or "error" when ok is false.
 *
 *   hello     -> {server, protocol, commit, cache_format,
 *                 policy_revision, pid}
 *   submit    {runs:[{benchmark,scheme,config,warmup,insts,...}]}
 *             -> {campaign, runs}
 *   status    {campaign} -> {state, completed, total}
 *   results   {campaign, wait?} -> {state, journal}
 *   cancel    {campaign} -> {cancelled}
 *   stats     -> {campaigns, submitted, unique, dedup_hits,
 *                 executed, simulated, recovered, overloaded,
 *                 orphaned, io_timeouts, protocol_errors}
 *   shutdown  -> {stopping}
 *
 * Error replies may carry a machine-readable "code" plus
 * "retryable" (bool) and "retry_after_ms" fields. Codes:
 *
 *   overloaded  admission control refused the connection or submit;
 *               retryable — back off retry_after_ms and resubmit
 *   draining    the daemon is shutting down; retryable against a
 *               restarted daemon
 *   protocol    the request frame or JSON was malformed; permanent
 *
 * The hello reply doubles as the version handshake: a client refuses
 * to talk to a daemon whose commit, cache format version, or policy
 * registry revision differ from its own, because results crossing
 * such a boundary are not comparable (same rule the shard journal
 * merger enforces).
 *
 * Crash safety: with durable tickets enabled (the default when a
 * cache directory is configured) every ticket's submit/start/finish
 * is journaled to `<cache-dir>/tickets.log` (sim/ticket_log.hh). A
 * daemon restarted over the same cache directory replays unfinished
 * tickets into its queue before accepting connections, so work
 * submitted before a SIGKILL completes after a restart and is never
 * simulated more than once beyond what was in flight at the kill.
 * Campaign ids are *not* durable — a client that loses its daemon
 * resubmits and the cache/ticket dedup makes the resubmission free.
 */

#ifndef DMDC_SIM_SERVICE_HH
#define DMDC_SIM_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/campaign_runner.hh"

namespace dmdc
{

/** Wire protocol version; bumped on any incompatible frame change.
 *  v2 added structured error codes and overload admission frames. */
constexpr unsigned kServiceProtocolVersion = 2;

/** Upper bound on one frame's payload (a journal easily fits). */
constexpr std::uint32_t kServiceMaxFrame = 64u * 1024 * 1024;

// ---- frame I/O -------------------------------------------------------

/** Write one length-prefixed frame to @p fd. False + @p err on any
 *  short write or I/O error. Signal-safe: EINTR and partial writes
 *  are retried, and SIGPIPE is suppressed (MSG_NOSIGNAL) so a
 *  vanished peer surfaces as EPIPE, not process death. */
bool writeFrame(int fd, const std::string &payload, std::string &err);

/**
 * Read one frame from @p fd into @p out. False + empty @p err on
 * clean EOF before the length prefix (peer hung up); false + message
 * on torn frames, oversized lengths, or I/O errors. Signal-safe:
 * EINTR and partial reads are retried.
 */
bool readFrame(int fd, std::string &out, std::string &err);

/**
 * writeFrame with a deadline: the whole frame must be written within
 * @p timeoutMs (<= 0 means no deadline). Progress is made with
 * non-blocking poll+send rounds, so a peer that stops reading cannot
 * park this thread past the deadline; on expiry @p err contains
 * "timed out".
 */
bool writeFrameTimed(int fd, const std::string &payload, int timeoutMs,
                     std::string &err);

/**
 * readFrame with deadlines: @p headerTimeoutMs bounds the wait for
 * the first length byte (an idle, connected peer), @p bodyTimeoutMs
 * bounds the rest of the frame once the header arrived (a peer that
 * started a frame must finish it promptly). <= 0 disables either
 * deadline; on expiry @p err contains "timed out".
 */
bool readFrameTimed(int fd, std::string &out, int headerTimeoutMs,
                    int bodyTimeoutMs, std::string &err);

// ---- handshake -------------------------------------------------------

/** The identity triple both ends of the handshake compare. */
struct ServiceIdentity
{
    std::string commit;         ///< buildCommit()
    unsigned cacheFormat = 0;   ///< kCacheFormatVersion
    std::string policyRevision; ///< policySourceFingerprint()
};

/** This process's identity (what dmdc_sim --version prints). */
ServiceIdentity localServiceIdentity();

// ---- daemon ----------------------------------------------------------

struct ServiceOptions
{
    /** Socket path. start() probes an existing file there: a dead
     *  owner's socket is reclaimed, a live daemon's is refused. */
    std::string socketPath = "dmdc_serve.sock";
    /** Simulation worker threads (0 = all cores). */
    unsigned workers = 0;
    /** Campaign engine knobs shared by every worker (cache dir, cap,
     *  timeouts, retries). Scheduler/shard/journal fields are owned
     *  by the daemon and ignored. */
    CampaignConfig campaign;
    bool verbose = false;

    // ---- robustness knobs ----

    /** Admission cap on concurrent connections (0 = unlimited). An
     *  over-cap accept gets one `overloaded` frame and is closed. */
    unsigned maxConnections = 64;
    /** Admission cap on queued-not-yet-claimed tickets (0 =
     *  unlimited). A submit that would exceed it is refused whole
     *  with a retryable `overloaded` error. */
    std::size_t maxQueuedTickets = 4096;
    /** Deadline for reading a started frame's body and for writing a
     *  reply (<= 0 disables). A stalled client trips it and loses its
     *  connection; workers and other clients are unaffected. */
    int ioTimeoutMs = 30000;
    /** Grace period before a campaign no connection holds is
     *  orphan-cancelled (incomplete) or garbage-collected (done).
     *  Covers the documented submit-then-exit / fetch-later workflow
     *  (<= 0 disables reaping). */
    int orphanGraceMs = 600000;
    /** Journal tickets to <cache-dir>/tickets.log and replay
     *  unfinished work on start (no-op without a cache dir). */
    bool durableTickets = true;
    /** Test hook: shrink accepted sockets' SO_SNDBUF so reply
     *  backpressure triggers quickly (0 = kernel default). */
    int sendBufBytes = 0;
};

/** Daemon-lifetime accounting (the `stats` op). */
struct ServiceStats
{
    std::uint64_t campaigns = 0;  ///< campaigns accepted
    std::uint64_t submitted = 0;  ///< run specs received
    std::uint64_t unique = 0;     ///< distinct cache keys (tickets)
    std::uint64_t dedupHits = 0;  ///< submits folded into a ticket
    std::uint64_t executed = 0;   ///< tickets run to completion
    std::uint64_t simulated = 0;  ///< executed minus cache hits
    std::uint64_t recovered = 0;  ///< tickets replayed from the log
    std::uint64_t overloaded = 0; ///< connections/submits refused
    std::uint64_t orphaned = 0;   ///< campaigns orphan-cancelled
    std::uint64_t ioTimeouts = 0; ///< connections dropped on deadline
    std::uint64_t protocolErrors = 0; ///< malformed frames/requests
};

/**
 * The dmdc_serve daemon. start() binds and spawns the worker pool,
 * serve() accepts connections until requestStop() (or a client
 * shutdown op), then drains: in-flight runs finish, still-queued
 * tickets complete as Skipped.
 */
class ServiceDaemon
{
  public:
    explicit ServiceDaemon(ServiceOptions options);
    ~ServiceDaemon();

    ServiceDaemon(const ServiceDaemon &) = delete;
    ServiceDaemon &operator=(const ServiceDaemon &) = delete;

    /** Bind the socket and start the worker pool. */
    bool start(std::string &err);

    /** Accept/dispatch until stopped. Returns a process exit code. */
    int serve();

    /** Ask serve() to wind down (async-signal-safe: sets a flag the
     *  accept loop polls). */
    void requestStop() { stopRequested_.store(true); }

    const ServiceOptions &options() const { return options_; }
    ServiceStats statsSnapshot() const;

  private:
    struct Impl;
    ServiceOptions options_;
    std::atomic<bool> stopRequested_{false};
    Impl *impl_; ///< raw: Impl is defined only in service.cc

    friend struct Impl;
};

// ---- client ----------------------------------------------------------

/**
 * One connection to a dmdc_serve daemon. Methods are synchronous
 * request/reply; any transport or protocol error closes the
 * connection and is reported through @p err.
 */
class ServiceClient
{
  public:
    ServiceClient() = default;
    ~ServiceClient();

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /**
     * Connect and run the version handshake: false (with a message
     * naming the mismatched field) when the daemon's commit, cache
     * format, or policy revision differ from this binary's.
     */
    bool connect(const std::string &socketPath, std::string &err);

    /** Skip-handshake connect (tests; the shutdown-only path). */
    bool connectRaw(const std::string &socketPath, std::string &err);

    /**
     * connect() with bounded exponential backoff: up to @p attempts
     * tries, sleeping baseDelayMs, 2*baseDelayMs, ... (capped at 5 s)
     * between them. Retries transport failures (daemon restarting,
     * socket not yet bound, connection refused) and retryable daemon
     * refusals; a handshake identity mismatch fails immediately —
     * waiting cannot make an incompatible daemon compatible.
     */
    bool connectWithRetry(const std::string &socketPath,
                          unsigned attempts, int baseDelayMs,
                          std::string &err);

    /** Send @p request, parse the reply. False + @p err on transport
     *  failure, malformed JSON, or an ok:false reply. */
    bool request(const std::string &request, JsonValue &reply,
                 std::string &err);

    /**
     * Machine-readable classification of the last request() failure:
     * the reply's "code" field when the daemon sent one, else "io"
     * (transport died), "protocol" (unparseable reply), "mismatch"
     * (handshake refusal), or "" after success. `io`, `overloaded`
     * and `draining` are worth retrying; the rest are permanent.
     */
    const std::string &lastErrorCode() const { return lastCode_; }

    /** retry_after_ms from the last refusal (0 when absent). */
    int retryAfterMs() const { return retryAfterMs_; }

    /** The daemon's hello (valid after connect()). */
    const ServiceIdentity &daemonIdentity() const { return daemon_; }

    bool connected() const { return fd_ >= 0; }
    void close();

  private:
    int fd_ = -1;
    ServiceIdentity daemon_;
    std::string lastCode_;
    int retryAfterMs_ = 0;
};

/**
 * Serialize one campaign run for the submit op. Only cacheable
 * SimOptions fields cross the wire (observers/tweak cannot); the
 * daemon validates with validateSimOptions() before accepting.
 */
std::string serviceRunSpecJson(const SimOptions &opt);

/** Parse a submit run spec into @p out. False + @p err on missing or
 *  ill-typed fields. */
bool parseServiceRunSpec(const JsonValue &spec, SimOptions &out,
                         std::string &err);

} // namespace dmdc

#endif // DMDC_SIM_SERVICE_HH
