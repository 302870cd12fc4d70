/**
 * @file
 * What every paper harness shares. Each bench binary
 * declares one Harness: a banner, a run grid (every SimOptions the
 * table needs, built before anything runs), a renderer over the
 * grid's results, and a footnote. runHarness() parses the command
 * line, submits the whole grid as one campaign (one LPT-ordered
 * queue, so --fail-fast and the "campaign:" summary cover every run),
 * renders, and exits kExitDegraded when any run degraded.
 *
 * The command line rides on the shared CliParser layer: --quick for
 * smoke runs, --insts=N, --warmup=N, --bench=a,b,c to restrict the
 * suite, plus the full campaign-engine flag bundle (--jobs/--no-cache/
 * --json/--timeout/--max-retries/--trace/..., identical to
 * tools/dmdc_sim). Malformed values produce a usage message and exit
 * kExitUsage.
 */

#ifndef DMDC_BENCH_BENCH_COMMON_HH
#define DMDC_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
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
     * Parse argv (and start tracing when asked). Invalid flags,
     * malformed numbers, or unknown benchmark names print usage and
     * exit(kExitUsage).
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

    /** The run template (--timeout/--check/--agent) at this budget. */
    SimOptions
    baseOptions() const
    {
        SimOptions opt = campaign.run;
        opt.warmupInsts = warmupInsts;
        opt.runInsts = runInsts;
        return opt;
    }

    /** @p base once per benchmark, in --bench order. */
    std::vector<SimOptions>
    suite(const SimOptions &base) const
    {
        std::vector<SimOptions> runs(benchmarks.size(), base);
        for (std::size_t i = 0; i < runs.size(); ++i)
            runs[i].benchmark = benchmarks[i];
        return runs;
    }
};

/** A harness's runs: suites of one run per benchmark. */
using Grid = std::vector<std::vector<SimOptions>>;
/** A grid's results, one vector per suite, in grid order. */
using Suites = std::vector<std::vector<SimResult>>;

/** One paper table or figure, declared (see the file comment). */
struct Harness
{
    std::string title;    ///< banner title line
    std::string paperRef; ///< banner "Reproduces:" line
    /** Every run the table needs. */
    std::function<Grid(const BenchArgs &)> grid;
    /** Print the table from the results of grid(); a degraded run's
     *  slot is invalid (SimResult::valid == false). */
    std::function<void(const Suites &)> render;
    std::string footnote; ///< printed verbatim after the table
};

/**
 * "mean [min, max]" of shadow filter @p filter's filtered share (%)
 * over the successful runs of one group; observers[b] are the filters
 * attached to run b of @p runs.
 */
template <typename Observer>
std::string
filteredRangeStr(
    const std::vector<std::vector<std::unique_ptr<Observer>>> &observers,
    const std::vector<SimResult> &runs, std::size_t filter, bool fp)
{
    std::vector<double> fracs;
    for (std::size_t b = 0; b < runs.size(); ++b) {
        // A degraded run's filters saw nothing.
        if (runs[b].valid && runs[b].fp == fp)
            fracs.push_back(observers[b][filter]->filteredFraction());
    }
    const Range r = makeRange(fracs);
    return rangeStr(Range{r.min * 100, r.mean * 100, r.max * 100, r.n});
}

/** Parse, print the banner, run the grid as one campaign, render.
 *  Returns kExitOk, or kExitDegraded when any run of that campaign
 *  degraded. */
inline int
runHarness(int argc, char **argv, const Harness &h)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    const std::string rule(80, '=');
    std::printf("\n%s\n%s\nReproduces: %s\n%s\n", rule.c_str(),
                h.title.c_str(), h.paperRef.c_str(), rule.c_str());

    const Grid grid = h.grid(args);
    std::vector<SimOptions> runs;
    for (const std::vector<SimOptions> &suite : grid)
        runs.insert(runs.end(), suite.begin(), suite.end());
    CampaignResult cr =
        CampaignRunner(args.campaign.config).runChecked(runs);

    Suites suites;
    auto next = std::make_move_iterator(cr.results.begin());
    for (const std::vector<SimOptions> &suite : grid) {
        suites.emplace_back(next, next + suite.size());
        next += suite.size();
    }
    h.render(suites);
    std::fputs(h.footnote.c_str(), stdout);
    return cr.degradedRuns() ? kExitDegraded : kExitOk;
}

} // namespace dmdc

#endif // DMDC_BENCH_BENCH_COMMON_HH
