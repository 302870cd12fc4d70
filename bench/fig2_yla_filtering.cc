/**
 * @file
 * Figure 2: percentage of LQ searches filtered (safe stores) versus
 * the number of YLA registers, for quad-word and cache-line
 * interleaving, INT and FP groups (mean and min/max range).
 *
 * All YLA geometries are measured as shadow filters on a single
 * baseline-timing run per benchmark: filtering does not alter timing.
 */

#include <cstdio>
#include <memory>

#include "bench_common.hh"
#include "common/logging.hh"
#include "lsq/lsq_unit.hh"

using namespace dmdc;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);

    printBanner("Figure 2: YLA filtering vs. register count and "
                "interleaving",
                "DMDC (MICRO 2006), Fig. 2; paper: 1 reg ~71% INT / "
                "~80% FP, 8 regs ~95-98%");

    const std::vector<unsigned> counts{1, 2, 4, 8, 16};
    constexpr unsigned line_bytes = 64;

    // name -> per-benchmark filtered fraction, per group.
    struct Series
    {
        std::string label;
        std::vector<double> intVals;
        std::vector<double> fpVals;
    };
    std::vector<Series> series;
    for (unsigned c : counts)
        series.push_back({"qw-" + std::to_string(c), {}, {}});
    for (unsigned c : counts)
        series.push_back({"line-" + std::to_string(c), {}, {}});

    // One run per benchmark, each with its own private shadow
    // filters; observer runs bypass the cache but still fan out
    // across cores via the campaign engine.
    std::vector<std::vector<std::unique_ptr<YlaObserver>>> observers;
    std::vector<SimOptions> runs;
    for (const std::string &bench : args.benchmarks) {
        auto &obs = observers.emplace_back();
        for (unsigned c : counts) {
            obs.push_back(std::make_unique<YlaObserver>(
                "qw-" + std::to_string(c), c, quadWordBytes));
        }
        for (unsigned c : counts) {
            obs.push_back(std::make_unique<YlaObserver>(
                "line-" + std::to_string(c), c, line_bytes));
        }

        SimOptions opt = args.baseOptions();
        opt.benchmark = bench;
        opt.scheme = "baseline";
        for (auto &o : obs)
            opt.observers.push_back(o.get());
        runs.push_back(std::move(opt));
    }

    const CampaignResult cr = runCampaignChecked(runs);

    for (std::size_t b = 0; b < args.benchmarks.size(); ++b) {
        if (!cr.outcomes[b].ok())
            continue; // degraded run: its shadow filters saw nothing
        const bool fp = specIsFp(args.benchmarks[b]);
        for (std::size_t i = 0; i < observers[b].size(); ++i) {
            const double frac = observers[b][i]->filteredFraction();
            (fp ? series[i].fpVals : series[i].intVals).push_back(frac);
        }
    }

    auto print_group = [&](const char *group, bool fp) {
        std::printf("\n%s applications -- %% of LQ searches filtered "
                    "(mean [min, max]):\n", group);
        std::printf("  %-10s %26s %26s\n", "#YLA",
                    "quad-word interleaved", "cache-line interleaved");
        for (std::size_t i = 0; i < counts.size(); ++i) {
            const auto &qw = series[i];
            const auto &ln = series[counts.size() + i];
            const Range rq =
                makeRange(fp ? qw.fpVals : qw.intVals);
            const Range rl =
                makeRange(fp ? ln.fpVals : ln.intVals);
            std::printf("  %-10u %26s %26s\n", counts[i],
                        rangeStr(Range{rq.min * 100, rq.mean * 100,
                                       rq.max * 100, rq.n}).c_str(),
                        rangeStr(Range{rl.min * 100, rl.mean * 100,
                                       rl.max * 100, rl.n}).c_str());
        }
    };
    print_group("INT", false);
    print_group("FP", true);

    std::printf("\nPaper reference points: 1 qw-YLA ~71%% (INT) / "
                "~80%% (FP); 8 qw-YLAs ~95-98%%;\n"
                "16 line-interleaved ~ 4 quad-word-interleaved.\n");
    return harnessExitCode();
}
