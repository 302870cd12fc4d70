/**
 * @file
 * campaign_launch — one-command supervised sharded campaigns.
 *
 * Usage:
 *   campaign_launch [supervisor options] [worker options...]
 *     --procs=<n>               shard worker processes (default 2)
 *     --heartbeat-interval=<ms> supervisor poll cadence (default 200)
 *     --hang-deadline=<ms>      heartbeat staleness before a worker
 *                               is killed + restarted (default 30000)
 *     --shard-retries=<n>       restarts allowed per shard (default 3)
 *     --launch-dir=<path>       scratch dir (default .dmdc_launch)
 *     --worker=<path>           worker binary (default: dmdc_sim
 *                               next to this launcher)
 *     --out=<path>              merged journal (default
 *                               <launch-dir>/merged.json)
 *     --resume                  keep the launch dir of an
 *                               interrupted launch (logs, journals)
 *     --verbose                 log every supervision event
 *     --trace=<channels>        trace launcher + workers (Chrome
 *                               trace-event JSON per process; combine
 *                               with tools/trace_merge)
 *     --trace-out=<path>        trace base path (default trace.json)
 *
 * Every other argument is forwarded verbatim to the dmdc_sim workers
 * (use the --name=value spelling), so the campaign itself is specified
 * exactly as for a serial run:
 *
 *   campaign_launch --procs=3 --bench=gzip,gcc,mcf \
 *       --scheme=baseline,dmdc --config=1,2,3
 *
 * The launcher computes the shard plan, spawns N workers with
 * --shard=i/N + per-shard heartbeats, restarts crashed or hung
 * workers (completed runs are served from the shared run cache, so
 * they never re-simulate), propagates SIGINT/SIGTERM for a graceful
 * shutdown (second signal force-kills), and finally
 * merges the shard journals into a file byte-identical to a serial
 * `dmdc_sim --json-deterministic` run.
 *
 * Exit codes: 0 ok; 1 a shard exhausted its retries or the merge
 * failed; 2 usage; 4 finished but some runs degraded (see the merged
 * journal); 5 interrupted by signal (relaunch the same command).
 *
 * The heartbeat protocol here is the same one dmdc_serve publishes
 * (including the service daemon's `draining` wind-down phase), so
 * the supervision machinery — staleness detection, last-phase
 * diagnostics on a hung worker — watches a campaign daemon
 * unchanged; only spawning is launcher-specific.
 */

#include <cstdio>

#include "sim/cli_options.hh"
#include "sim/supervisor.hh"

using namespace dmdc;

int
main(int argc, char **argv)
{
    SupervisorCliOptions launch;
    CliParser cli(argv[0],
                  "Supervised sharded campaign launcher: spawns N "
                  "dmdc_sim shard workers, watches heartbeats, "
                  "restarts crashed/hung shards (completed runs come "
                  "from the run cache), and merges the journals. "
                  "Unrecognized "
                  "--name=value options are forwarded to the workers.");
    launch.addTo(cli);
    cli.parseOrExit(argc, argv);

    std::string err;
    if (!launch.finalize(argv[0], err))
        cli.failUsage(err);
    launch.applyTracing();

    ShardSupervisor supervisor(launch.options);
    return supervisor.run();
}
