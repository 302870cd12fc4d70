/**
 * @file
 * Shard-worker process supervision: spawn, heartbeat-watch, restart,
 * signal propagation, and in-process journal merging.
 */

#include "sim/supervisor.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "common/trace_sink.hh"
#include "sim/campaign_runner.hh"
#include "sim/campaign_shard.hh"
#include "sim/cli_options.hh"

namespace dmdc
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Interned-once trace identities for the supervision layer. */
struct SupervisorTrace
{
    TraceCategory &cat = traceCategory("supervisor");
    std::uint16_t launch = traceNameId("launch");
    std::uint16_t spawn = traceNameId("spawn");
    std::uint16_t done = traceNameId("worker-done");
    std::uint16_t restart = traceNameId("worker-restart");
    std::uint16_t failed = traceNameId("worker-failed");
    std::uint16_t drain = traceNameId("drain");
    std::uint16_t hungKill = traceNameId("hung-kill");
    std::uint16_t merge = traceNameId("merge");
};

SupervisorTrace &
supervisorTrace()
{
    static SupervisorTrace ids;
    return ids;
}

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
        Clock::now().time_since_epoch()).count();
}

// ---- worker-side signal protocol -------------------------------------

volatile std::sig_atomic_t g_workerSignals = 0;

extern "C" void
workerSignalHandler(int sig)
{
    // Second signal: the user wants out *now*; skip all cleanup.
    if (++g_workerSignals >= 2)
        _exit(128 + sig);
    requestCampaignInterrupt();
}

// ---- supervisor-side signal latch ------------------------------------

volatile std::sig_atomic_t g_supervisorSignals = 0;

extern "C" void
supervisorSignalHandler(int)
{
    ++g_supervisorSignals;
}

void
installSupervisorSignalHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = supervisorSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

/** Read a whole file; empty optional semantics via bool return. */
bool
slurpFile(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream ss;
    ss << is.rdbuf();
    out = ss.str();
    return true;
}

} // namespace

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

// ---- ShardSupervisor -------------------------------------------------

ShardSupervisor::ShardSupervisor(SupervisorOptions options)
    : opts_(std::move(options)), monitor_(opts_.hangDeadlineMs)
{
    if (opts_.procs == 0)
        opts_.procs = 1;
    workers_.resize(opts_.procs);
    for (unsigned i = 0; i < opts_.procs; ++i)
        workers_[i].shard = i;
}

std::string
ShardSupervisor::heartbeatPathFor(unsigned shard) const
{
    // Must mirror the worker: the runner derives its per-shard
    // heartbeat file from the base path with shardFilePath().
    return shardFilePath(opts_.launchDir + "/heartbeat.json",
                          ShardSpec{shard, opts_.procs});
}

std::string
ShardSupervisor::journalPathFor(unsigned shard) const
{
    if (opts_.procs == 1)
        return opts_.launchDir + "/journal.json";
    return opts_.launchDir + "/journal.shard" + std::to_string(shard) +
           "of" + std::to_string(opts_.procs) + ".json";
}

bool
ShardSupervisor::spawn(Worker &w)
{
    std::vector<std::string> args;
    args.push_back(opts_.workerBinary);
    for (const std::string &a : opts_.workerArgs)
        args.push_back(a);
    if (opts_.procs > 1) {
        args.push_back("--shard=" + std::to_string(w.shard) + "/" +
                       std::to_string(opts_.procs));
    }
    args.push_back("--heartbeat=" + opts_.launchDir +
                   "/heartbeat.json");
    args.push_back("--json=" + journalPathFor(w.shard));
    args.push_back("--json-deterministic");

    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    const std::string log_path = opts_.launchDir + "/shard" +
        std::to_string(w.shard) + ".log";
    const std::string attempt_env = std::to_string(w.attempt);

    const int pid = fork();
    if (pid < 0) {
        warn("supervisor: fork failed for shard %u: %s", w.shard,
             std::strerror(errno));
        return false;
    }
    if (pid == 0) {
        // Child: workers restore default signal dispositions (they
        // install their own handlers) and log to a per-shard file so
        // N campaign tables don't interleave on the launcher tty.
        signal(SIGINT, SIG_DFL);
        signal(SIGTERM, SIG_DFL);
        setenv("DMDC_SHARD_ATTEMPT", attempt_env.c_str(), 1);
        const int fd = open(log_path.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
            dup2(fd, STDOUT_FILENO);
            dup2(fd, STDERR_FILENO);
            if (fd > STDERR_FILENO)
                close(fd);
        }
        execv(argv[0], argv.data());
        _exit(127);
    }

    w.pid = pid;
    w.state = WorkerState::Running;
    monitor_.track(w.shard, nowMs());
    traceInstantArg(supervisorTrace().cat, supervisorTrace().spawn,
                    w.shard);
    if (opts_.verbose) {
        inform("supervisor: shard %u/%u -> pid %d (attempt %u%s)",
               w.shard, opts_.procs, pid, w.attempt,
               w.attempt > 0 ? ", restart" : "");
    }
    return true;
}

void
ShardSupervisor::handleExit(Worker &w, int waitStatus)
{
    monitor_.forget(w.shard);
    w.pid = -1;

    int code = -1;
    int sig = 0;
    if (WIFEXITED(waitStatus))
        code = WEXITSTATUS(waitStatus);
    else if (WIFSIGNALED(waitStatus))
        sig = WTERMSIG(waitStatus);

    if (stopping_) {
        // Whatever the worker's last word was, the launch is winding
        // down; it either drained cleanly (kExitInterrupted / 0 / 4)
        // or died under escalation. Both end its story here.
        w.state = (code == kExitOk || code == kExitDegraded ||
                   code == kExitInterrupted)
            ? WorkerState::Done : WorkerState::Failed;
        if (code == kExitDegraded)
            w.degraded = true;
        if (opts_.verbose)
            inform("supervisor: shard %u drained (exit %d)", w.shard,
                   code);
        return;
    }

    if (code == kExitOk || code == kExitDegraded) {
        w.state = WorkerState::Done;
        if (code == kExitDegraded)
            w.degraded = true;
        traceInstantArg(supervisorTrace().cat, supervisorTrace().done,
                        w.shard);
        if (opts_.verbose)
            inform("supervisor: shard %u done (exit %d)", w.shard,
                   code);
        return;
    }

    if (code == kExitUsage || code == 127) {
        // Bad argv or unexecutable binary: every restart would fail
        // the same way.
        warn("supervisor: shard %u exited %d (bad worker command "
             "line?); not restarting — see %s/shard%u.log",
             w.shard, code, opts_.launchDir.c_str(), w.shard);
        w.state = WorkerState::Failed;
        return;
    }

    // Crash (signal), unexpected interrupt, or failure: restart with
    // bounded retries. The restarted worker is served its completed
    // runs from the run cache, so they never re-simulate.
    if (w.attempt < opts_.shardRetries) {
        ++w.attempt;
        traceInstantArg(supervisorTrace().cat,
                        supervisorTrace().restart, w.shard);
        if (sig) {
            warn("supervisor: shard %u killed by signal %d; "
                 "restarting (attempt %u of %u)",
                 w.shard, sig, w.attempt, opts_.shardRetries);
        } else {
            warn("supervisor: shard %u exited %d; restarting "
                 "(attempt %u of %u)",
                 w.shard, code, w.attempt, opts_.shardRetries);
        }
        w.state = WorkerState::Idle;
        if (!spawn(w))
            w.state = WorkerState::Failed;
        return;
    }

    warn("supervisor: shard %u failed after %u restart(s); giving up "
         "(journal and log kept in %s)",
         w.shard, w.attempt, opts_.launchDir.c_str());
    traceInstantArg(supervisorTrace().cat, supervisorTrace().failed,
                    w.shard);
    w.state = WorkerState::Failed;
}

void
ShardSupervisor::requestStop(int sig)
{
    stopping_ = true;
    traceInstant(supervisorTrace().cat, supervisorTrace().drain);
    inform("supervisor: signal received; asking workers to finish "
           "their in-flight run and cache it (signal again to "
           "force-kill)");
    for (Worker &w : workers_) {
        if (w.state == WorkerState::Running && w.pid > 0) {
            kill(w.pid, sig);
            w.state = WorkerState::Stopping;
            // Restart the staleness window: draining can legitimately
            // take one full in-flight run.
            monitor_.track(w.shard, nowMs());
        }
    }
}

void
ShardSupervisor::forceStop()
{
    warn("supervisor: second signal; force-killing workers");
    for (Worker &w : workers_) {
        if ((w.state == WorkerState::Running ||
             w.state == WorkerState::Stopping) && w.pid > 0)
            kill(w.pid, SIGKILL);
    }
}

int
ShardSupervisor::run()
{
    SupervisorTrace &st = supervisorTrace();
    TraceSpan launch_span(st.cat, st.launch);
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(opts_.launchDir, ec);
    if (ec) {
        warn("supervisor: cannot create launch dir '%s': %s",
             opts_.launchDir.c_str(), ec.message().c_str());
        return kExitFailure;
    }
    if (!opts_.resume) {
        // A fresh launch must not inherit a previous campaign's
        // heartbeats or journals. Remove only files this launcher
        // writes; the directory may be shared with user files.
        for (const auto &de : fs::directory_iterator(
                 opts_.launchDir,
                 fs::directory_options::skip_permission_denied, ec)) {
            const std::string name = de.path().filename().string();
            const bool ours = name.rfind("heartbeat.", 0) == 0 ||
                name.rfind("journal.", 0) == 0 ||
                name.rfind("shard", 0) == 0 || name == "merged.json";
            if (ours)
                fs::remove(de.path(), ec);
        }
    }

    installSupervisorSignalHandlers();
    for (Worker &w : workers_) {
        if (!spawn(w))
            w.state = WorkerState::Failed;
    }

    int seen_signals = 0;
    bool force_killed = false;
    for (;;) {
        bool alive = false;
        for (Worker &w : workers_) {
            if (w.state != WorkerState::Running &&
                w.state != WorkerState::Stopping)
                continue;
            alive = true;

            int status = 0;
            const int r = waitpid(w.pid, &status, WNOHANG);
            if (r == w.pid) {
                handleExit(w, status);
                continue;
            }

            // Feed the staleness monitor from the shard's heartbeat.
            HeartbeatRecord hb;
            std::string err;
            const bool haveBeat =
                readHeartbeat(heartbeatPathFor(w.shard), hb, err);
            if (haveBeat)
                monitor_.observe(w.shard, hb.counter, nowMs());
            if (monitor_.hung(w.shard, nowMs())) {
                // The last published phase tells the operator *what*
                // wedged: a worker silent in "draining" hung during
                // shutdown, not mid-simulation.
                warn("supervisor: shard %u heartbeat silent for "
                     "%.0f ms (deadline %.0f, last phase %s); "
                     "killing pid %d",
                     w.shard, monitor_.silentMs(w.shard, nowMs()),
                     monitor_.deadlineMs(),
                     haveBeat ? heartbeatPhaseName(hb.phase) : "unknown",
                     w.pid);
                kill(w.pid, SIGKILL);
                traceInstantArg(supervisorTrace().cat,
                                supervisorTrace().hungKill, w.shard);
                // Reaped (and restarted, if eligible) on the next
                // poll iteration.
                monitor_.track(w.shard, nowMs());
            }
        }
        if (!alive)
            break;

        const int signals = g_supervisorSignals;
        if (signals > seen_signals) {
            seen_signals = signals;
            if (!stopping_)
                requestStop(SIGTERM);
            else if (!force_killed) {
                forceStop();
                force_killed = true;
            }
        }

        std::this_thread::sleep_for(std::chrono::duration<double,
                                    std::milli>(opts_.pollIntervalMs));
    }

    if (stopping_) {
        inform("supervisor: interrupted; resume with the same command "
               "plus --resume (completed runs will not re-simulate)");
        return kExitInterrupted;
    }
    for (const Worker &w : workers_) {
        if (w.state == WorkerState::Failed)
            return kExitFailure;
    }

    const int merge_rc = mergeAndVerify();
    if (merge_rc != kExitOk)
        return merge_rc;
    for (const Worker &w : workers_) {
        if (w.degraded)
            return kExitDegraded;
    }
    return kExitOk;
}

int
ShardSupervisor::mergeAndVerify()
{
    TraceSpan merge_span(supervisorTrace().cat,
                         supervisorTrace().merge);
    const std::string out_path = opts_.journalPath.empty()
        ? opts_.launchDir + "/merged.json" : opts_.journalPath;

    std::string merged_text;
    if (opts_.procs == 1) {
        // A lone worker writes an unsharded deterministic journal —
        // already in canonical form; publishing is a copy, not a merge.
        if (!slurpFile(journalPathFor(0), merged_text)) {
            warn("supervisor: worker journal '%s' is missing",
                 journalPathFor(0).c_str());
            return kExitFailure;
        }
    } else {
        std::vector<ShardJournal> shards(opts_.procs);
        for (unsigned i = 0; i < opts_.procs; ++i) {
            std::string err;
            if (!loadShardJournal(journalPathFor(i), shards[i], err)) {
                warn("supervisor: %s", err.c_str());
                return kExitFailure;
            }
        }
        ShardJournal merged;
        std::string err;
        if (!mergeShardJournals(shards, merged, err)) {
            warn("supervisor: journal merge failed: %s", err.c_str());
            return kExitFailure;
        }
        std::ostringstream os;
        writeMergedJournal(os, merged);
        merged_text = os.str();
    }

    if (!writeFileAtomic(out_path, merged_text)) {
        warn("supervisor: cannot write merged journal '%s'",
             out_path.c_str());
        return kExitFailure;
    }

    // Round-trip verification: re-read the published file, re-parse,
    // re-serialize, and demand byte identity with what a serial
    // --json-deterministic run would produce. Any drift here means
    // the canonical-form contract broke.
    std::string published;
    ShardJournal check;
    std::string err;
    if (!slurpFile(out_path, published) ||
        !parseShardJournal(published, check, err)) {
        warn("supervisor: merged journal '%s' fails verification: %s",
             out_path.c_str(), err.c_str());
        return kExitFailure;
    }
    std::ostringstream canon;
    writeMergedJournal(canon, check);
    if (canon.str() != published) {
        warn("supervisor: merged journal '%s' is not in canonical "
             "serial form", out_path.c_str());
        return kExitFailure;
    }
    inform("supervisor: merged journal -> %s (%zu records, verified "
           "canonical)", out_path.c_str(), check.entries.size());
    return kExitOk;
}

} // namespace dmdc
