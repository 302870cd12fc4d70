/**
 * @file
 * Shared helpers for the benchmark harnesses: standard run lengths and
 * command-line handling on the shared CliParser layer (--quick for
 * smoke runs, --insts=N, --bench=a,b,c to restrict the suite, plus
 * the full campaign-engine flag bundle: --jobs/--no-cache/--json/
 * --timeout/--max-retries/--trace/... — identical to tools/dmdc_sim).
 * Malformed values produce a usage message and exit kExitUsage
 * instead of an uncaught std::invalid_argument.
 */

#ifndef DMDC_BENCH_BENCH_COMMON_HH
#define DMDC_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "sim/campaign_runner.hh"
#include "sim/cli_options.hh"
#include "trace/spec_suite.hh"

namespace dmdc
{

/** Parsed bench command line. */
struct BenchArgs
{
    std::uint64_t warmupInsts = 30000;
    std::uint64_t runInsts = 200000;
    std::vector<std::string> benchmarks;   ///< suite subset (or all)
    CampaignCliOptions campaign;           ///< shared engine flags

    /**
     * Parse argv and configure the process-wide CampaignRunner and
     * journal accordingly (benches call this before any runSuite()).
     * Invalid flags, malformed numbers, or unknown benchmark names
     * print usage and exit(kExitUsage).
     */
    static BenchArgs
    parse(int argc, char **argv)
    {
        BenchArgs args;
        args.benchmarks = specAllNames();

        CliParser cli(argv[0],
                      "DMDC figure/table harness; prints the "
                      "reproduction and exits 0, or " +
                          std::to_string(kExitDegraded) +
                          " when runs degraded to n/a cells.");
        cli.action("quick",
                   [&args] {
                       args.warmupInsts = 10000;
                       args.runInsts = 60000;
                       args.benchmarks = {"gzip", "mcf", "swim",
                                          "art"};
                   },
                   "smoke-run budget over a 4-benchmark subset");
        cli.value("insts", &args.runInsts,
                  "measured instructions per run");
        cli.value("warmup", &args.warmupInsts,
                  "warm-up instructions per run");
        cli.list("bench", &args.benchmarks,
                 "comma-separated benchmark subset");
        args.campaign.addTo(cli);
        cli.parseOrExit(argc, argv);

        std::string err;
        if (!args.campaign.finalize(err))
            cli.failUsage(err);
        if (args.runInsts == 0)
            cli.failUsage("--insts must be > 0");
        for (const std::string &name : args.benchmarks) {
            bool known = false;
            for (const std::string &s : specAllNames())
                known = known || s == name;
            if (!known)
                cli.failUsage("unknown benchmark '" + name + "'");
        }

        args.campaign.apply();
        return args;
    }

    SimOptions
    baseOptions() const
    {
        SimOptions opt;
        opt.warmupInsts = warmupInsts;
        opt.runInsts = runInsts;
        return opt;
    }
};

} // namespace dmdc

#endif // DMDC_BENCH_BENCH_COMMON_HH
