/**
 * @file
 * Process supervision for sharded campaigns.
 *
 * ShardSupervisor is the engine behind tools/campaign_launch: it
 * fork/execs one dmdc_sim shard worker per slice, watches their
 * heartbeats and exit statuses, SIGKILLs hung workers, restarts
 * crashed ones with bounded per-shard retries (restarts are served
 * completed runs from the run cache, so only unfinished runs
 * re-simulate), propagates SIGINT/SIGTERM for a graceful shutdown,
 * and — once every shard succeeds — merges the per-shard journals
 * in-process into a file byte-identical to a serial
 * --json-deterministic run.
 *
 * Worker-side counterparts live here too: installWorkerSignalHandlers()
 * arms the two-stage SIGINT/SIGTERM protocol inside dmdc_sim (first
 * signal: finish the in-flight run, cache it, flush the journal, exit
 * kExitInterrupted; second signal: _exit immediately).
 */

#ifndef DMDC_SIM_SUPERVISOR_HH
#define DMDC_SIM_SUPERVISOR_HH

#include <string>
#include <vector>

#include "sim/heartbeat.hh"

namespace dmdc
{

/** Knobs of a supervised campaign launch (tools/campaign_launch). */
struct SupervisorOptions
{
    /** Shard worker processes to spawn (the N of --shard=i/N). */
    unsigned procs = 2;
    /** Supervisor poll cadence: how often heartbeats are re-read and
     *  children reaped, in milliseconds. */
    double pollIntervalMs = 200.0;
    /** Heartbeat staleness beyond which a worker counts as hung and
     *  is SIGKILLed (then restarted). 0 disables hang detection. */
    double hangDeadlineMs = 30000.0;
    /** Restarts allowed per shard beyond its first launch. */
    unsigned shardRetries = 3;
    /** Worker binary (dmdc_sim) to exec. */
    std::string workerBinary;
    /** Campaign arguments forwarded verbatim to every worker
     *  (--bench/--scheme/--config/--insts/...). */
    std::vector<std::string> workerArgs;
    /** Scratch directory for per-shard heartbeat, journal and log
     *  files. Created on demand; wiped unless resuming. */
    std::string launchDir = ".dmdc_launch";
    /** Merged journal target; empty selects launchDir + "/merged.json". */
    std::string journalPath;
    /** Resume a previously interrupted launch: keep the launch dir's
     *  files. Completed runs come from the run cache either way. */
    bool resume = false;
    /** Print per-event supervision log lines. */
    bool verbose = false;
};

/**
 * Spawns, monitors, restarts, and harvests the shard workers of one
 * campaign. Single-threaded; run() blocks until the launch reaches a
 * terminal state and returns the process exit code (kExitOk,
 * kExitDegraded, kExitFailure, or kExitInterrupted).
 */
class ShardSupervisor
{
  public:
    explicit ShardSupervisor(SupervisorOptions options);

    /** Execute the supervised launch. */
    int run();

  private:
    enum class WorkerState
    {
        Idle,     ///< not spawned yet (or awaiting restart)
        Running,  ///< alive, making progress
        Stopping, ///< SIGTERM delivered, draining its in-flight run
        Done,     ///< exited 0 or kExitDegraded
        Failed,   ///< retries exhausted or unrecoverable exit
    };

    struct Worker
    {
        int pid = -1;
        unsigned shard = 0;
        unsigned attempt = 0; ///< restarts so far (DMDC_SHARD_ATTEMPT)
        WorkerState state = WorkerState::Idle;
        bool degraded = false; ///< exited kExitDegraded at least once
    };

    bool spawn(Worker &w);
    void handleExit(Worker &w, int waitStatus);
    void requestStop(int sig);
    void forceStop();
    int mergeAndVerify();

    std::string heartbeatPathFor(unsigned shard) const;
    std::string journalPathFor(unsigned shard) const;

    SupervisorOptions opts_;
    std::vector<Worker> workers_;
    HeartbeatMonitor monitor_;
    bool stopping_ = false;
};

/**
 * Arm the worker-side two-stage SIGINT/SIGTERM protocol: the first
 * signal requests a campaign interrupt (pending runs skip, the
 * in-flight run finishes and is cached, the journal flushes, the
 * process exits kExitInterrupted); a second signal _exits immediately
 * with the conventional 128+sig status.
 */
void installWorkerSignalHandlers();

} // namespace dmdc

#endif // DMDC_SIM_SUPERVISOR_HH
