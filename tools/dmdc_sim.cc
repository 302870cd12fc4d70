/**
 * @file
 * dmdc_sim — command-line driver for single simulations and small
 * fault-tolerant campaigns.
 *
 * Usage:
 *   dmdc_sim [options]
 *     --bench=<a,b,...>     benchmark(s) (default gzip; --list for all)
 *     --scheme=<a,b,...>    registered scheme name(s) or alias(es)
 *                           (--list-schemes for all)
 *     --list-schemes        print the scheme registry and exit
 *     --config=<1|2|3,...>  paper Table 1 configuration(s) (default 2)
 *     --insts=<n>           measured instructions (default 500000)
 *     --warmup=<n>          warm-up instructions (default 50000)
 *     --yla=<n>             quad-word YLA registers (default 8)
 *     --table=<n>           checking-table entries (default per config)
 *     --queue=<n>           checking-queue entries (default 16)
 *     --inv=<rate>          invalidations per 1000 cycles
 *     --coherence           enable the coherence extension
 *     --no-safe-loads       disable safe-load detection (ablation)
 *     --sq-filter           enable the Sec. 3 SQ-side age filter
 *     --stats               dump the full statistics tree (single run)
 *     --energy              dump the energy breakdown (single run)
 *     --jobs=<n>            campaign worker threads (0 = all cores)
 *     --no-cache            bypass the memoized run cache
 *     --cache-dir=<path>    run-cache directory (default .dmdc_cache)
 *     --timeout=<ms>        per-run wall-clock budget (0 = none)
 *     --max-retries=<n>     retries for transient failures (default 2)
 *     --fail-fast           stop scheduling runs after a failure and
 *                           exit non-zero if anything failed
 *     --trace=<channels>    capture a Chrome trace (comma list or
 *                           'all') into trace.<pid>.json;
 *                           --trace-out=<path> names the file
 *     --json=<path>         write the campaign journal / failure
 *                           manifest to <path> (not with --stats,
 *                           which bypasses the campaign runner)
 *     --json-deterministic  omit the build stamp, timestamps, wall
 *                           clock, throughput and attempts from the
 *                           journal
 *     --check=<mode>        off | oracle | litmus: attach the
 *                           commit-time ordering oracle (and, for
 *                           litmus, a scripted coherence agent) to
 *                           every run; an oracle failure is a
 *                           non-transient run failure
 *     --agent=<spec>        scripted coherence-agent family
 *                           (implies --check=litmus)
 *
 * Every run's options are validated before anything simulates: a bad
 * --bench/--scheme/--config/... value exits 2 in single-run and
 * campaign mode alike. Comma-separated --bench / --scheme / --config
 * values select campaign mode: the cross product runs through the
 * fault-isolated campaign engine. Individual run failures degrade the
 * campaign (they appear in the journal and the exit status stays 0)
 * unless --fail-fast is given or every run failed. Deterministic chaos can be injected with
 * DMDC_FAULT=run-throw:p=0.1,run-hang:p=0.01,cache-corrupt:p=0.1;
 * DMDC_FAULT=worker-crash:p=<p> SIGKILLs the process right after a
 * freshly simulated run is cached.
 *
 * Interrupt & rerun: in campaign mode a first SIGINT/SIGTERM lets the
 * in-flight runs finish and reach the cache, flushes the journal, and
 * exits 5; a second signal exits at once. Recovery from an interrupt
 * or a crash is rerunning the same command against the same cache:
 * completed runs are cache hits, and the journal comes out identical.
 *
 * Concurrent campaigns: N processes running the same command on one
 * --cache-dir simulate each run once between them (per-key claims,
 * see sim/cache_store.hh), and each writes the journal a serial run
 * would; give each its own --json path.
 *
 * Repeat invocations with identical options are served from the run
 * cache (near-instant); --stats always re-simulates because the full
 * statistics tree only exists on a live pipeline.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/build_info.hh"
#include "common/logging.hh"
#include "energy/energy_model.hh"
#include "lsq/policy/registry.hh"
#include "sim/campaign_runner.hh"
#include "sim/cli_options.hh"
#include "sim/run_error.hh"
#include "sim/simulator.hh"
#include "trace/spec_suite.hh"

using namespace dmdc;

namespace
{

void
printSchemes()
{
    const DependencePolicyRegistry &reg =
        DependencePolicyRegistry::instance();
    for (const std::string &name : reg.names()) {
        const SchemeInfo &info = reg.lookup(name);
        std::string label = info.name;
        for (const std::string &alias : info.aliases)
            label += " | " + alias;
        std::printf("%-24s %s\n", label.c_str(),
                    info.summary.c_str());
    }
}

void
printEnergy(const EnergyBreakdown &e)
{
    auto row = [total = e.total()](const char *name, double v) {
        std::printf("  %-12s %14.0f  (%5.2f%%)\n", name, v,
                    total > 0 ? v / total * 100.0 : 0.0);
    };
    std::printf("\nenergy breakdown (arbitrary units):\n");
    row("fetch", e.fetch);
    row("bpred", e.bpred);
    row("rename", e.rename);
    row("rob", e.rob);
    row("issue_queue", e.issueQueue);
    row("regfile", e.regfile);
    row("fu", e.fu);
    row("l1d", e.l1d);
    row("l2", e.l2);
    row("clock", e.clock);
    row("lq_cam", e.lqCam);
    row("sq", e.sq);
    row("yla", e.yla);
    row("checking", e.checking);
    std::printf("  %-12s %14.0f\n", "TOTAL", e.total());
    std::printf("  LQ-function share: %.2f%%\n",
                e.total() > 0 ? e.lqFunction() / e.total() * 100.0
                              : 0.0);
}

void
printSingleResult(const SimResult &r, const SimOptions &opt)
{
    // Reporting traits come from the registry, never from per-scheme
    // dispatch in this tool.
    const SchemeInfo &scheme_info =
        DependencePolicyRegistry::instance().lookup(r.scheme);

    std::printf("benchmark=%s (%s) scheme=%s config=%u\n",
                r.benchmark.c_str(), r.fp ? "FP" : "INT",
                r.scheme.c_str(), r.configLevel);
    std::printf("instructions=%llu cycles=%llu ipc=%.3f\n",
                static_cast<unsigned long long>(r.instructions),
                static_cast<unsigned long long>(r.cycles), r.ipc);
    if (scheme_info.hasFilterStats) {
        const double all = static_cast<double>(r.lqSearches +
                                               r.lqSearchesFiltered);
        std::printf("lq searches filtered: %.1f%%\n",
                    all > 0 ? r.lqSearchesFiltered / all * 100 : 0.0);
    }
    if (scheme_info.hasDmdcStats) {
        std::printf("safe stores=%.1f%% safe loads=%.1f%% "
                    "checking cycles=%.1f%%\n",
                    r.safeStoreFrac * 100, r.safeLoadFrac * 100,
                    r.checkingCycleFrac * 100);
        std::printf("replays: %llu total, %.1f false per M-inst\n",
                    static_cast<unsigned long long>(r.dmdcReplays),
                    r.perMInst(r.falseReplays()));
    }
    if (scheme_info.hasAgeReplays) {
        std::printf("age-table replays: %llu (%.1f per M-inst), "
                    "true violations %llu\n",
                    static_cast<unsigned long long>(r.ageTableReplays),
                    r.perMInst(static_cast<double>(r.ageTableReplays)),
                    static_cast<unsigned long long>(r.trueViolations));
    }
    if (opt.sqFilter) {
        const double all = static_cast<double>(r.sqSearches +
                                               r.sqSearchesFiltered);
        std::printf("sq searches filtered: %.1f%%\n",
                    all > 0 ? r.sqSearchesFiltered / all * 100 : 0.0);
    }
}

int
runCampaign(const std::vector<SimOptions> &runs,
            const CampaignConfig &cfg)
{
    const CampaignResult cr = CampaignRunner(cfg).runChecked(runs);

    std::printf("%-12s %-14s %3s  %-12s %8s %8s\n", "benchmark",
                "scheme", "cfg", "status", "ipc", "attempts");
    std::size_t ok = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunOutcome &oc = cr.outcomes[i];
        if (oc.ok()) {
            ++ok;
            std::printf("%-12s %-14s %3u  %-12s %8.3f %8u%s\n",
                        cr.results[i].benchmark.c_str(),
                        cr.results[i].scheme.c_str(),
                        cr.results[i].configLevel,
                        runStatusName(oc.status), cr.results[i].ipc,
                        oc.attempts, oc.cached ? "  (cached)" : "");
        } else {
            std::printf("%-12s %-14s %3u  %-12s %8s %8u  %s: %s\n",
                        runs[i].benchmark.c_str(),
                        runs[i].scheme.c_str(), runs[i].configLevel,
                        runStatusName(oc.status), "-", oc.attempts,
                        runErrorCategoryName(oc.category),
                        oc.error.c_str());
        }
    }
    std::printf("\n%zu of %zu runs ok\n", ok, runs.size());

    // A signal-interrupted campaign has flushed its journal; the
    // distinct exit code tells the calling script that rerunning the
    // same command will converge (completed runs are cache hits).
    // Checked before the failure rules:
    // an interrupt that lands before any run succeeds is still an
    // interrupt, not a failed campaign.
    if (campaignInterruptRequested()) {
        std::printf("campaign interrupted; rerun the same command to "
                    "continue\n");
        return kExitInterrupted;
    }

    // A degraded campaign still exits 0 — the journal is the failure
    // manifest — but a campaign with nothing to show, or any failure
    // under --fail-fast, is an error.
    if (ok == 0)
        return kExitFailure;
    if (cfg.failFast && ok != runs.size())
        return kExitFailure;
    return kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    // Every run is a copy of the campaign flags' run template, so
    // --timeout/--check/--agent reach the --stats path as well.
    CampaignCliOptions campaign;
    SimOptions &opt = campaign.run;
    opt.warmupInsts = 50000;
    opt.runInsts = 500000;
    bool dump_stats = false;
    bool dump_energy = false;
    std::vector<std::string> benches{"gzip"};
    std::vector<std::string> schemes;
    std::vector<std::string> config_names{"2"};

    CliParser cli(argv[0],
                  "Single simulations and fault-tolerant campaigns. "
                  "Comma lists in --bench/--scheme/--config select "
                  "campaign mode (the cross product).");
    cli.action("list",
               [] {
                   for (const auto &n : specAllNames())
                       std::printf("%s%s\n", n.c_str(),
                                   specIsFp(n) ? " (FP)" : " (INT)");
                   std::exit(kExitOk);
               },
               "print the benchmark suite and exit");
    cli.action("list-schemes",
               [] {
                   printSchemes();
                   std::exit(kExitOk);
               },
               "print the scheme registry and exit");
    cli.action("version",
               [] {
                   std::printf("commit %s\ncache-format %u\n"
                               "policy-revision %s\n",
                               buildCommit(), kCacheFormatVersion,
                               policySourceFingerprint().c_str());
                   std::exit(kExitOk);
               },
               "print commit/cache-format/policy revision and exit");
    cli.list("bench", &benches, "benchmark name(s)");
    cli.list("scheme", &schemes, "scheme name(s) or alias(es)");
    cli.list("config", &config_names, "paper Table 1 config(s)");
    cli.value("insts", &opt.runInsts, "measured instructions");
    cli.value("warmup", &opt.warmupInsts, "warm-up instructions");
    cli.value("yla", &opt.numYlaQw, "quad-word YLA registers");
    cli.value("table", &opt.tableEntriesOverride,
              "checking-table entries (0 = per config)");
    cli.value("queue", &opt.queueEntries, "checking-queue entries");
    cli.valueAction("inv",
                    [&opt](const std::string &v, std::string &err) {
                        if (!parseCliDouble(
                                v, opt.invalidationsPer1kCycles)) {
                            err = "--inv expects a finite number, "
                                  "got '" + v + "'";
                            return false;
                        }
                        opt.coherence = true;
                        return true;
                    },
                    "invalidations per 1000 cycles");
    cli.flag("coherence", &opt.coherence,
             "enable the coherence extension");
    cli.action("no-safe-loads", [&opt] { opt.safeLoads = false; },
               "disable safe-load detection (ablation)");
    cli.flag("sq-filter", &opt.sqFilter,
             "enable the Sec. 3 SQ-side age filter");
    cli.flag("stats", &dump_stats,
             "dump the full statistics tree (single run)");
    cli.flag("energy", &dump_energy,
             "dump the energy breakdown (single run)");
    campaign.addTo(cli);
    cli.parseOrExit(argc, argv);

  try {
    std::string err;
    if (!campaign.finalize(err))
        cli.failUsage(err);
    campaign.apply();
    if (schemes.empty())
        schemes.push_back(opt.scheme);
    std::vector<SimOptions> runs;
    for (const std::string &bench : benches) {
        for (const std::string &scheme : schemes) {
            for (const std::string &config : config_names) {
                SimOptions r = opt;
                r.benchmark = bench;
                r.scheme = scheme;
                if (!parseCliUnsigned(config, r.configLevel))
                    cli.failUsage("--config expects unsigned "
                                  "integers, got '" + config + "'");
                runs.push_back(std::move(r));
            }
        }
    }
    // A typo'd --config/--yla is a command line problem, not a
    // runtime failure: reject every bad run before simulating any.
    for (const SimOptions &r : runs) {
        try {
            validateSimOptions(r);
        } catch (const RunError &e) {
            std::fprintf(stderr, "dmdc_sim: %s\n", e.what());
            return kExitUsage;
        }
    }

    if (runs.size() > 1) {
        if (dump_stats || dump_energy) {
            std::fprintf(stderr, "dmdc_sim: --stats/--energy need a "
                                 "single run, not a campaign\n");
            return kExitUsage;
        }
        // Two-stage SIGINT/SIGTERM: finish the in-flight run, cache
        // it, flush the journal, exit kExitInterrupted;
        // signal again to die immediately.
        installWorkerSignalHandlers();
        return runCampaign(runs, campaign.config);
    }

    opt = runs.front();

    // --stats needs the live pipeline's statistics tree, so that mode
    // always simulates in-process; everything else goes through the
    // cache-aware campaign runner.
    std::unique_ptr<Simulator> sim;
    SimResult r;
    if (dump_stats) {
        sim = std::make_unique<Simulator>(opt);
        r = sim->run();
    } else {
        CampaignResult cr =
            CampaignRunner(campaign.config).runChecked({opt});
        const RunOutcome &oc = cr.outcomes.front();
        if (!oc.ok()) {
            std::fprintf(stderr, "dmdc_sim: run %s (%s error): %s\n",
                         runStatusName(oc.status),
                         runErrorCategoryName(oc.category),
                         oc.error.c_str());
            return 1;
        }
        r = cr.results.front();
        if (oc.cached)
            inform("run served from cache (%.1f ms)", oc.wallMs);
        else
            inform("simulated in %.1f ms", oc.wallMs);
    }
    printSingleResult(r, opt);

    if (dump_stats)
        sim->pipeline().statRoot().dump(std::cout);
    if (dump_energy)
        printEnergy(r.energy);
    return 0;
  } catch (const RunError &e) {
    std::fprintf(stderr, "dmdc_sim: %s error: %s\n",
                 runErrorCategoryName(e.category()), e.what());
    return 1;
  } catch (const std::exception &e) {
    std::fprintf(stderr, "dmdc_sim: %s\n", e.what());
    return 1;
  }
}
