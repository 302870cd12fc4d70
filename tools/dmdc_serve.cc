/**
 * @file
 * dmdc_serve — campaign daemon over a Unix-domain socket.
 *
 * Usage:
 *   dmdc_serve [options]
 *     --socket=<path>       listen here (default dmdc_serve.sock)
 *     --workers=<n>         simulation worker threads (0 = all cores)
 *     --cache-dir=<path>    shared run-cache directory
 *     --cache-max-mb=<n>    LRU-evict the run cache above n MB
 *     --timeout=<ms>        per-run wall-clock budget (0 = none)
 *     --max-retries=<n>     retries for transient failures
 *     --no-cache            bypass the run cache (debugging)
 *     --max-connections=<n> concurrent client cap (0 = unlimited);
 *                           over-cap connects get a retryable
 *                           `overloaded` frame
 *     --max-queued=<n>      queued-ticket admission cap (0 = none)
 *     --io-timeout=<ms>     per-frame read/write deadline; a stalled
 *                           client is dropped, not waited on
 *     --orphan-grace=<ms>   grace before campaigns nobody holds are
 *                           cancelled/forgotten (0 = never)
 *     --no-ticket-log       disable the durable ticket log
 *     --verbose             log connections and completed runs
 *     --trace=<channels>    trace channels (comma list or 'all');
 *                           Chrome trace-event JSON written at exit
 *     --trace-out=<path>    trace output path (default trace.json)
 *     --check=<mode>        off | oracle | litmus: run every accepted
 *                           campaign under the commit-time ordering
 *                           oracle (checked runs bypass the cache)
 *     --agent=<spec>        scripted coherence-agent family for
 *                           checked runs (implies --check=litmus)
 *
 * Clients (dmdc_client) submit campaigns as JSON run lists; the
 * daemon multiplexes every campaign onto one shared work-stealing
 * pool and deduplicates overlapping runs by cache key, so a triple
 * submitted by five clients is simulated exactly once. SIGINT/SIGTERM
 * (or a client's shutdown op) drain gracefully: in-flight runs
 * finish, queued work is skipped, and the socket is removed. A
 * client's `stats` op reports what the daemon is doing (campaigns
 * accepted, unique runs, runs executed and simulated so far).
 *
 * Crash recovery: with a cache directory configured, accepted work
 * is journaled to <cache-dir>/tickets.log. A daemon killed outright
 * (SIGKILL, OOM, power loss) and restarted over the same cache
 * directory replays unfinished tickets and completes them; clients
 * reconnect (dmdc_client retries automatically) and resubmit, with
 * the cache deduplicating everything that already finished.
 */

#include <csignal>
#include <cstdio>
#include <string>

#include "sim/cli_options.hh"
#include "sim/service.hh"
#include "verify/check_mode.hh"
#include "verify/coherence_agent.hh"

using namespace dmdc;

namespace
{

ServiceDaemon *g_daemon = nullptr;

void
onSignal(int)
{
    if (g_daemon)
        g_daemon->requestStop();
}

} // namespace

int
main(int argc, char **argv)
{
    ServiceOptions opt;
    std::uint64_t cache_max_mb = 0;
    std::uint64_t max_queued =
        static_cast<std::uint64_t>(opt.maxQueuedTickets);
    std::uint64_t io_timeout_ms =
        static_cast<std::uint64_t>(opt.ioTimeoutMs);
    std::uint64_t orphan_grace_ms =
        static_cast<std::uint64_t>(opt.orphanGraceMs);
    bool no_cache = false;
    bool no_ticket_log = false;
    TraceOptions trace_opt;
    std::string trace_out;

    CliParser cli(argv[0],
                  "Campaign daemon: accepts dmdc_client campaigns on "
                  "a Unix socket, multiplexes them onto one shared "
                  "work-stealing pool, and deduplicates overlapping "
                  "runs so each is simulated exactly once.");
    cli.value("socket", &opt.socketPath, "Unix socket path");
    cli.value("workers", &opt.workers,
              "simulation worker threads (0 = all cores)");
    cli.value("cache-dir", &opt.campaign.cacheDir,
              "shared run-cache directory");
    cli.value("cache-max-mb", &cache_max_mb,
              "evict LRU cache entries over this size");
    cli.value("timeout", &opt.campaign.timeoutMs,
              "per-run wall-clock budget, ms (0 = none)");
    cli.value("max-retries", &opt.campaign.maxRetries,
              "retries for transient run failures");
    cli.flag("no-cache", &no_cache, "disable the run cache");
    cli.value("max-connections", &opt.maxConnections,
              "concurrent client cap (0 = unlimited)");
    cli.value("max-queued", &max_queued,
              "queued-ticket admission cap (0 = unlimited)");
    cli.value("io-timeout", &io_timeout_ms,
              "per-frame read/write deadline, ms (0 = none)");
    cli.value("orphan-grace", &orphan_grace_ms,
              "unheld-campaign grace before reaping, ms (0 = never)");
    cli.flag("no-ticket-log", &no_ticket_log,
             "disable the durable ticket log");
    cli.flag("verbose", &opt.verbose,
             "log connections and completed runs");
    cli.value("trace", &trace_opt.channels,
              "trace channels (comma list or 'all')");
    cli.value("trace-out", &trace_out,
              "Chrome trace-event JSON path (default trace.json)");
    cli.value("trace-buffer", &trace_opt.bufferRecords,
              "per-thread trace ring capacity, records");
    std::string check_text;
    std::string agent_text;
    cli.value("check", &check_text,
              "commit-time verification: off, oracle, or litmus");
    cli.value("agent", &agent_text,
              "coherence-agent spec for checked runs");
    cli.parseOrExit(argc, argv);

    if (!check_text.empty() &&
        !parseCheckMode(check_text, opt.campaign.checkMode)) {
        cli.failUsage("--check expects off, oracle or litmus, got '" +
                      check_text + "'");
    }
    if (!agent_text.empty()) {
        std::string agent_err;
        if (!CoherenceAgent::validateSpec(agent_text, &agent_err))
            cli.failUsage("--agent: " + agent_err);
        opt.campaign.coherenceAgent = agent_text;
        if (opt.campaign.checkMode == CheckMode::Off)
            opt.campaign.checkMode = CheckMode::Litmus;
    }

    if (!trace_out.empty() && trace_opt.channels.empty())
        cli.failUsage("--trace-out requires --trace=<channels|all>");
    if (!trace_out.empty())
        trace_opt.outPath = trace_out;
    if (trace_opt.enabled()) {
        traceConfigure(trace_opt);
        traceSetThreadName("serve-main");
    }

    opt.campaign.useCache = !no_cache;
    opt.campaign.cacheMaxBytes = cache_max_mb * 1024ull * 1024ull;
    opt.maxQueuedTickets = static_cast<std::size_t>(max_queued);
    opt.ioTimeoutMs = static_cast<int>(io_timeout_ms);
    opt.orphanGraceMs = static_cast<int>(orphan_grace_ms);
    opt.durableTickets = !no_ticket_log;

    // A client that dies mid-reply must surface as EPIPE on the
    // daemon's write, never as a process-killing SIGPIPE. The frame
    // layer already sends with MSG_NOSIGNAL; this covers any other
    // incidental socket write.
    std::signal(SIGPIPE, SIG_IGN);

    ServiceDaemon daemon(std::move(opt));
    std::string err;
    if (!daemon.start(err)) {
        std::fprintf(stderr, "dmdc_serve: %s\n", err.c_str());
        return kExitFailure;
    }

    g_daemon = &daemon;
    struct sigaction sa{};
    sa.sa_handler = onSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    const int rc = daemon.serve();
    g_daemon = nullptr;
    return rc;
}
