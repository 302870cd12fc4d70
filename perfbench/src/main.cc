/**
 * @file
 * The simulator benchmark program.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --reference FILE --work-dir DIR
 *   perfbench --write-reference FILE
 *
 * `--trace 0` times the workload through the public API
 * (Simulator::run, CampaignRunner::runChecked) and prints the
 * end-to-end metrics. `--trace 1` prints the per-layer metrics, timed
 * from outside the program around the calls into each layer. Every
 * simulated result is checked against the pinned reference table; the
 * last stdout line is one JSON object (correct, attempted, failed,
 * metrics). Exit status: 0 success, 1 a wrong result or an invalid
 * traced run, 2 a usage or set-up error.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "metrics.hh"
#include "reference.hh"
#include "sim/campaign_runner.hh"
#include "traced_kernel.hh"
#include "workloads.hh"

using namespace perfbench;
namespace fs = std::filesystem;

namespace
{

/** Attempted / failed runs, with the first few failure messages. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    fail(const std::string &msg)
    {
        ++failed;
        if (errors.size() < 10)
            errors.push_back(msg);
    }
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string reference = "perfbench/reference.tsv";
    std::string workDir = ".bench_build/work";
    std::string writeReference;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "kernel-busy|kernel-stall|campaign-cold|campaign-warm "
                 "--seed N --seconds S --trace 0|1 [--reference FILE] "
                 "[--work-dir DIR]\n       perfbench --write-reference "
                 "FILE\n",
                 msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (flag == "--reference")
                a.reference = v;
            else if (flag == "--work-dir")
                a.workDir = v;
            else if (flag == "--write-reference")
                a.writeReference = v;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value '" + v + "' for " + flag);
        }
    }
    if (!(a.seconds > 0.0))
        usage("--seconds must be > 0");
    return a;
}

/**
 * Moves the calling thread round the CPUs it may run on, one CPU per
 * timed sample, and restores its CPU set when destroyed. On a shared
 * virtual machine each virtual CPU is slowed for seconds at a time by
 * whatever else runs on its physical core, and at any moment some are
 * slower than others (the same kernel run was measured 40 % apart on
 * two CPUs a few seconds apart). Spreading a run's samples over every
 * CPU gives each sample set a chance at an unloaded one, where pinning
 * to a single CPU would tie the whole run to that CPU's neighbours.
 * Threads started while pinned inherit the pin, so campaign passes
 * with several workers run outside any rotation.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&saved_);
        if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &saved_))
                cpus_.push_back(cpu);
        }
    }

    ~CpuRotation()
    {
        if (pinned_)
            sched_setaffinity(0, sizeof(saved_), &saved_);
    }

    /** Number of CPUs the thread may run on (0 if unknown). */
    std::size_t
    size() const
    {
        return cpus_.size();
    }

    /** Pin the calling thread to the next CPU in turn. */
    void
    next()
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0 || pinned_;
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

  private:
    cpu_set_t saved_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
    bool pinned_ = false;
};

/**
 * Peak resident memory of this process image, from VmHWM in
 * /proc/self/status. getrusage's ru_maxrss is not used where VmHWM
 * exists: Linux carries the pre-exec image's peak into it, so it reads
 * at least the RSS of whatever process launched this one (a Python
 * parent's 14 MB hid this program's 8 MB).
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool
timeLeft(std::int64_t start, double seconds)
{
    return secondsBetween(start, nowNs()) < seconds;
}

/**
 * Whether one more pass, expected to take the median of @p pass_s so
 * far, still ends within @p seconds of @p start. Timed loops stop on
 * this rather than on timeLeft(), so a run never overruns its time by
 * a whole pass (a campaign-cold pass takes about 10 s).
 */
bool
roomForPass(std::int64_t start, double seconds,
            const std::vector<double> &pass_s)
{
    return secondsBetween(start, nowNs()) + median(pass_s) <= seconds;
}

/**
 * What every repeated timing of the timed phase reports: its fastest
 * sample. Other tenants of a shared host only ever add time, and they
 * can slow a CPU for much of a run, so the fastest sample estimates the
 * program's own cost best; the median moves with the host's load.
 */
double
fastest(const std::vector<double> &samples)
{
    return percentile(samples, 0.0);
}

/** One report line on the samples behind the metrics: the timed
 *  passes, with their median beside the fastest, and the set-ups. */
void
printSamples(const std::vector<double> &pass_s, std::size_t setups)
{
    std::printf("timed passes: %zu (fastest %.6g s, median %.6g s); "
                "set-ups timed: %zu\n",
                pass_s.size(), fastest(pass_s), median(pass_s), setups);
}

/** Check every run of a campaign: completed, and equal to its row. */
void
checkCampaign(const std::vector<dmdc::SimOptions> &runs,
              const dmdc::CampaignResult &cr, const ReferenceTable &ref,
              Tally &tally)
{
    for (std::size_t i = 0; i < runs.size(); ++i) {
        ++tally.attempted;
        const dmdc::RunOutcome &oc = cr.outcomes[i];
        if (!oc.ok()) {
            tally.fail(runKey(runs[i]) + ": " +
                       dmdc::runStatusName(oc.status) + ": " + oc.error);
            continue;
        }
        const std::string diff = ref.check(runs[i], cr.results[i]);
        if (!diff.empty())
            tally.fail(diff);
    }
}

/** Summed warm-up + measured committed instructions of @p runs. */
double
committedOf(const std::vector<dmdc::SimOptions> &runs,
            const ReferenceTable &ref)
{
    double total = 0.0;
    for (const dmdc::SimOptions &opt : runs)
        total += static_cast<double>(ref.totalCommitted(opt));
    return total;
}

dmdc::CampaignConfig
campaignConfig(const fs::path &dir, unsigned jobs)
{
    dmdc::CampaignConfig cfg;
    cfg.jobs = jobs;
    cfg.useCache = true;
    cfg.cacheDir = dir.string();
    return cfg;
}

// ---------------------------------------------------------------------
// Untraced workloads: the end-to-end metrics.
// ---------------------------------------------------------------------

/**
 * kernel-*: one Simulator at a time. Each round visits every pool
 * benchmark once. The first round warms the host (page tables, caches,
 * clock) and is checked but not timed; timed rounds repeat while
 * another fits in the time. Each run goes to the next CPU in turn.
 * inst_per_s is the pool's committed instructions over the sum of each
 * benchmark's fastest() run() time, so every seed weighs the pool
 * alike; campaign_s is the sum of each benchmark's fastest construct +
 * run() time, one pool round at that speed.
 */
void
kernelUntraced(WorkloadKind w, SeedRng &rng, double seconds,
               const ReferenceTable &ref, Tally &tally, MetricSet &m)
{
    CpuRotation cpus;
    std::map<std::string, std::vector<double>> run_s, total_s;
    std::map<std::string, double> committed;
    std::vector<double> build_s, round_s;
    const std::int64_t start = nowNs();
    for (int round_no = 0;; ++round_no) {
        const bool timed = round_no > 0;
        const std::vector<dmdc::SimOptions> round = drawPass(w, rng);
        const std::int64_t r0 = nowNs();
        for (const dmdc::SimOptions &opt : round) {
            ++tally.attempted;
            cpus.next();
            try {
                const std::int64_t c0 = nowNs();
                dmdc::Simulator sim(opt);
                const std::int64_t c1 = nowNs();
                const dmdc::SimResult r = sim.run();
                const std::int64_t c2 = nowNs();
                if (timed) {
                    build_s.push_back(secondsBetween(c0, c1));
                    run_s[opt.benchmark].push_back(secondsBetween(c1, c2));
                    total_s[opt.benchmark].push_back(
                        secondsBetween(c0, c2));
                }
                committed[opt.benchmark] =
                    static_cast<double>(ref.totalCommitted(opt));
                const std::string diff = ref.check(opt, r);
                if (!diff.empty())
                    tally.fail(diff);
            } catch (const std::exception &e) {
                tally.fail(runKey(opt) + ": " + e.what());
            }
        }
        round_s.push_back(secondsBetween(r0, nowNs()));
        if (timed && !roomForPass(start, seconds, round_s))
            break;
    }

    double insts = 0.0, run_time = 0.0, round_time = 0.0;
    for (const auto &[bench, times] : run_s) {
        insts += committed[bench];
        run_time += fastest(times);
        round_time += fastest(total_s[bench]);
    }
    m.set("inst_per_s", run_time > 0.0 ? insts / run_time : 0.0);
    m.set("campaign_s", round_time);
    m.set("setup_s", median(build_s));
    round_s.erase(round_s.begin()); // the warm-up round
    printSamples(round_s, build_s.size());
}

/**
 * Set-up of a campaign pass on an empty cache: runner construction
 * and cache-store open (the index replay happens on first use, so
 * liveEntries() forces it). Too short to time once, so it is repeated
 * on every CPU in turn and the median kept.
 */
double
emptyStoreOpenSeconds(const fs::path &dir, unsigned jobs)
{
    constexpr int kPerCpu = 16;
    CpuRotation cpus;
    std::vector<double> samples;
    for (std::size_t c = 0; c < std::max<std::size_t>(cpus.size(), 1); ++c) {
        cpus.next();
        // The first open after a move runs on cold caches: not timed.
        for (int i = 0; i <= kPerCpu; ++i) {
            const std::int64_t t0 = nowNs();
            dmdc::CampaignRunner runner(campaignConfig(dir, jobs));
            runner.diskStore().liveEntries();
            if (i > 0)
                samples.push_back(secondsBetween(t0, nowNs()));
        }
    }
    return median(samples);
}

/** campaign-cold: the fig4 run list into a fresh empty cache. */
void
campaignColdUntraced(SeedRng &rng, double seconds, const fs::path &work,
                     const ReferenceTable &ref, Tally &tally,
                     MetricSet &m)
{
    const unsigned jobs = campaignJobs();
    const fs::path dir = work / "cold-cache";
    std::vector<double> pass_s, setup_s;
    double insts = 0.0;
    const std::int64_t start = nowNs();
    do {
        const std::vector<dmdc::SimOptions> pass =
            drawPass(WorkloadKind::CampaignCold, rng);
        fs::remove_all(dir);
        setup_s.push_back(emptyStoreOpenSeconds(dir, jobs));
        dmdc::CampaignRunner runner(campaignConfig(dir, jobs));
        runner.diskStore().liveEntries();
        const std::int64_t t0 = nowNs();
        const dmdc::CampaignResult cr = runner.runChecked(pass);
        pass_s.push_back(secondsBetween(t0, nowNs()));
        checkCampaign(pass, cr, ref, tally);
        if (runner.lastStats().simulated != pass.size())
            tally.fail("campaign-cold: expected every run simulated, got " +
                       std::to_string(runner.lastStats().simulated));
        insts = committedOf(pass, ref);
    } while (roomForPass(start, seconds, pass_s));
    fs::remove_all(dir);

    m.set("inst_per_s", insts / fastest(pass_s));
    m.set("campaign_s", fastest(pass_s));
    m.set("setup_s", median(setup_s));
    printSamples(pass_s, setup_s.size());
}

/**
 * Fill @p dir with the campaign-warm run list: runner and store open
 * plus one cold pass at the short budget.
 */
double
populateWarmCache(const fs::path &dir, unsigned jobs,
                  const ReferenceTable &ref, Tally &tally)
{
    const std::vector<dmdc::SimOptions> runs =
        allRuns(WorkloadKind::CampaignWarm);
    fs::remove_all(dir);
    const std::int64_t t0 = nowNs();
    dmdc::CampaignRunner runner(campaignConfig(dir, jobs));
    runner.diskStore().liveEntries();
    const dmdc::CampaignResult cr = runner.runChecked(runs);
    const double s = secondsBetween(t0, nowNs());
    checkCampaign(runs, cr, ref, tally);
    return s;
}

/** campaign-warm: every pass served from the on-disk cache. */
void
campaignWarmUntraced(SeedRng &rng, double seconds, const fs::path &work,
                     const ReferenceTable &ref, Tally &tally,
                     MetricSet &m)
{
    constexpr int kSetups = 5;
    const unsigned jobs = campaignJobs();
    const fs::path dir = work / "warm-cache";
    std::vector<double> setup_s;
    for (int i = 0; i < kSetups; ++i)
        setup_s.push_back(populateWarmCache(dir, jobs, ref, tally));

    // Disk hits are served on the calling thread, so the passes are
    // single-threaded.
    CpuRotation cpus;
    std::vector<double> pass_s;
    double insts = 0.0;
    const std::int64_t start = nowNs();
    do {
        const std::vector<dmdc::SimOptions> pass =
            drawPass(WorkloadKind::CampaignWarm, rng);
        cpus.next();
        // A fresh runner has an empty memo map: every run is a disk
        // hit.
        dmdc::CampaignRunner runner(campaignConfig(dir, jobs));
        const std::int64_t t0 = nowNs();
        const dmdc::CampaignResult cr = runner.runChecked(pass);
        pass_s.push_back(secondsBetween(t0, nowNs()));
        checkCampaign(pass, cr, ref, tally);
        if (runner.lastStats().diskHits != pass.size())
            tally.fail("campaign-warm: expected every run a disk hit, "
                       "got " +
                       std::to_string(runner.lastStats().diskHits));
        insts = committedOf(pass, ref);
    } while (roomForPass(start, seconds, pass_s));
    fs::remove_all(dir);

    m.set("inst_per_s", insts / fastest(pass_s));
    m.set("campaign_s", fastest(pass_s));
    m.set("setup_s", median(setup_s));
    printSamples(pass_s, setup_s.size());
}

// ---------------------------------------------------------------------
// Traced mode: the per-layer metrics.
// ---------------------------------------------------------------------

/** Sums over the traced kernel runs of one invocation. */
struct KernelLayers
{
    std::vector<TracedKernelRun> runs;
    std::vector<double> simBuildMs;   ///< untraced Simulator ctor
    std::int64_t untracedNs = 0;      ///< untraced ctor + run()
    bool fidelityOk = true;
};

/**
 * One traced sample: the untraced Simulator result first (set-up
 * time, fidelity baseline, overhead base), then the traced rebuild.
 */
void
traceKernelRun(const dmdc::SimOptions &opt, std::uint64_t id,
               const ReferenceTable &ref, Tally &tally,
               KernelLayers &layers)
{
    ++tally.attempted;
    try {
        const std::int64_t c0 = nowNs();
        dmdc::Simulator sim(opt);
        const std::int64_t c1 = nowNs();
        const dmdc::SimResult r = sim.run();
        const std::int64_t c2 = nowNs();
        layers.simBuildMs.push_back(secondsBetween(c0, c1) * 1e3);
        layers.untracedNs += c2 - c0;
        const std::string diff = ref.check(opt, r);
        if (!diff.empty())
            tally.fail(diff);

        TracedKernelRun t = runTracedKernel(opt, id);
        if (t.committed != r.instructions || t.cycles != r.cycles ||
            t.pinned != pinnedValues(r, t.warmupCommitted)) {
            layers.fidelityOk = false;
            tally.fail(runKey(opt) + ": traced run committed " +
                       std::to_string(t.committed) + " in " +
                       std::to_string(t.cycles) +
                       " cycles, Simulator::run " +
                       std::to_string(r.instructions) + " in " +
                       std::to_string(r.cycles));
        }
        layers.runs.push_back(std::move(t));
    } catch (const std::exception &e) {
        tally.fail(runKey(opt) + ": " + e.what());
    }
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
setKernelLayerMetrics(const KernelLayers &k, MetricSet &m)
{
    double all_kinst = 0, meas_kinst = 0, cycles = 0, all_cycles = 0;
    double op_calls = 0, op_ns = 0, wp_calls = 0, wp_ns = 0;
    double ticks = 0, tick_self = 0, empty = 0, skipped = 0, skip_ns = 0;
    double dispatched = 0, issued = 0, mispred = 0;
    double l1h = 0, l1m = 0, l2h = 0, l2m = 0;
    double lq = 0, lqf = 0, sq = 0, rej = 0, replays = 0, traced_ns = 0;
    std::vector<double> trace_build, core_build, energy;
    for (const TracedKernelRun &t : k.runs) {
        all_kinst += static_cast<double>(t.allCommitted()) / 1e3;
        meas_kinst += static_cast<double>(t.committed) / 1e3;
        cycles += static_cast<double>(t.cycles);
        all_cycles += static_cast<double>(t.allCycles);
        op_calls += static_cast<double>(t.op.calls);
        op_ns += static_cast<double>(t.op.ns);
        wp_calls += static_cast<double>(t.wrongPath.calls);
        wp_ns += static_cast<double>(t.wrongPath.ns);
        ticks += static_cast<double>(t.tick.calls);
        tick_self += static_cast<double>(t.tick.ns - t.tickChildNs);
        empty += static_cast<double>(t.emptyTicks);
        skipped += static_cast<double>(t.skippedCycles);
        skip_ns += static_cast<double>(t.nextEvent.ns + t.skip.ns);
        dispatched += static_cast<double>(t.dispatched);
        issued += static_cast<double>(t.issued);
        mispred += static_cast<double>(t.mispredicts);
        l1h += static_cast<double>(t.l1dHits);
        l1m += static_cast<double>(t.l1dMisses);
        l2h += static_cast<double>(t.l2Hits);
        l2m += static_cast<double>(t.l2Misses);
        lq += static_cast<double>(t.lqSearches);
        lqf += static_cast<double>(t.lqFiltered);
        sq += static_cast<double>(t.sqSearches);
        rej += static_cast<double>(t.loadRejections);
        replays += static_cast<double>(t.replays);
        traced_ns += static_cast<double>(t.totalNs);
        trace_build.push_back(static_cast<double>(t.traceBuildNs) / 1e6);
        core_build.push_back(static_cast<double>(t.coreBuildNs) / 1e6);
        energy.push_back(static_cast<double>(t.energyNs) / 1e3);
    }
    m.set("trace.build_ms", median(trace_build));
    m.set("trace.op_calls_per_kinst", ratio(op_calls, all_kinst));
    m.set("trace.op_ns_per_kinst", ratio(op_ns, all_kinst));
    m.set("trace.wrongpath_calls_per_kinst", ratio(wp_calls, all_kinst));
    m.set("trace.wrongpath_ns_per_kinst", ratio(wp_ns, all_kinst));
    m.set("core.build_ms", median(core_build));
    m.set("core.tick_calls_per_kinst", ratio(ticks, all_kinst));
    m.set("core.tick_self_ns_per_kinst", ratio(tick_self, all_kinst));
    m.set("core.empty_tick_frac", ratio(empty, ticks));
    m.set("core.skip_cycle_frac", ratio(skipped, all_cycles));
    m.set("core.skip_ns_per_kinst", ratio(skip_ns, all_kinst));
    m.set("core.ipc", ratio(meas_kinst * 1e3, cycles));
    m.set("core.dispatch_per_commit", ratio(dispatched, meas_kinst * 1e3));
    m.set("core.issue_per_commit", ratio(issued, meas_kinst * 1e3));
    m.set("branch.mispredicts_per_kinst", ratio(mispred, meas_kinst));
    m.set("mem.l1d_miss_rate", ratio(l1m, l1h + l1m));
    m.set("mem.l2_miss_rate", ratio(l2m, l2h + l2m));
    m.set("lsq.lq_searches_per_kinst", ratio(lq, meas_kinst));
    m.set("lsq.lq_filtered_frac", ratio(lqf, lq + lqf));
    m.set("lsq.sq_searches_per_kinst", ratio(sq, meas_kinst));
    m.set("lsq.load_rejections_per_kinst", ratio(rej, meas_kinst));
    m.set("lsq.replays_per_minst", ratio(replays, meas_kinst / 1e3));
    m.set("energy.compute_us", median(energy));
    m.set("sim.build_ms", median(k.simBuildMs));
    m.set("bench.trace_overhead_frac",
          ratio(traced_ns, static_cast<double>(k.untracedNs)) - 1.0);
}

/** Spans of the campaign and cache layers, plus every kernel span,
 *  written as a Chrome trace once the measurements are done. */
void
writeTrace(const fs::path &path, const std::vector<Span> &campaign_spans,
           const KernelLayers &k)
{
    std::vector<Span> spans = campaign_spans;
    for (const TracedKernelRun &t : k.runs) {
        const int base = static_cast<int>(spans.size());
        for (Span s : t.spans) {
            if (s.parent >= 0)
                s.parent += base;
            spans.push_back(s);
        }
    }
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    std::int64_t origin = spans.empty() ? 0 : spans.front().startNs;
    for (const Span &s : spans)
        origin = std::min(origin, s.startNs);
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    char buf[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"self_us\": %.3f}}",
                      i ? ",\n" : "", s.name.c_str(),
                      static_cast<unsigned long long>(s.id),
                      static_cast<double>(s.startNs - origin) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3,
                      static_cast<double>(self[i]) / 1e3);
        out << buf;
    }
    out << "\n]}\n";
}

/**
 * Traced mode, the same steps on every workload: one pass of the
 * workload's run list through a CampaignRunner into a scratch cache
 * (scheduler and run-time figures), the cache store timed on that
 * pass's entries, a warm pass, and then traced kernel runs over a
 * seed-drawn sample until the time is up.
 */
void
tracedMode(WorkloadKind w, std::uint64_t seed, double seconds,
           const fs::path &work, const ReferenceTable &ref, Tally &tally,
           MetricSet &m)
{
    SeedRng rng(seed);
    const std::int64_t start = nowNs();
    const bool kernel = isKernel(w);
    const unsigned jobs = kernel ? 1 : campaignJobs();
    const std::vector<dmdc::SimOptions> list = drawPass(w, rng);
    const double n = static_cast<double>(list.size());
    const fs::path dir = work / "traced-cache";
    const fs::path store_dir = work / "traced-store";
    fs::remove_all(dir);
    fs::remove_all(store_dir);
    std::vector<Span> spans;
    auto span = [&](const char *name, std::int64_t t0) {
        spans.push_back({name, t0, nowNs(), -1, 0});
        return secondsBetween(t0, spans.back().endNs);
    };

    // ---- one pass through the run scheduler ----
    dmdc::CampaignRunner first(campaignConfig(dir, jobs));
    std::int64_t t0 = nowNs();
    const dmdc::CampaignResult cr = first.runChecked(list);
    span("campaign.pass", t0);
    checkCampaign(list, cr, ref, tally);
    std::vector<double> run_ms;
    double busy_ms = 0.0;
    for (const dmdc::RunOutcome &oc : cr.outcomes) {
        run_ms.push_back(oc.wallMs);
        busy_ms += oc.wallMs;
    }
    const double wall_ms = first.lastStats().wallMs;
    m.set("sim.run_ms_p50", percentile(run_ms, 50));
    m.set("sim.run_ms_p90", percentile(run_ms, 90));
    m.set("sched.busy_frac", ratio(busy_ms, jobs * wall_ms));
    m.set("sched.tail_ms", wall_ms - busy_ms / jobs);

    // ---- the cache store on that pass's entries ----
    t0 = nowNs();
    dmdc::CacheStore store({dir.string()});
    const std::size_t live = store.liveEntries();
    m.set("cache.open_ms", span("cache.open", t0) * 1e3);
    if (live != list.size())
        tally.fail("cache holds " + std::to_string(live) + " entries, "
                   "expected " + std::to_string(list.size()));
    std::vector<std::pair<std::string, std::string>> entries;
    for (const dmdc::SimOptions &opt : list)
        entries.emplace_back(dmdc::cacheKey(opt), std::string());
    t0 = nowNs();
    for (auto &[key, payload] : entries) {
        if (store.load(key, payload) != dmdc::CacheStore::Load::Hit)
            tally.fail("cache load missed " + key);
    }
    const double load_us = span("cache.load", t0) * 1e6 / n;
    m.set("cache.load_us_per_run", load_us);
    dmdc::CacheStore scratch({store_dir.string()});
    t0 = nowNs();
    for (const auto &[key, payload] : entries)
        scratch.store(key, payload);
    m.set("cache.store_us_per_run", span("cache.store", t0) * 1e6 / n);

    // ---- a warm pass: load + decode of every entry ----
    dmdc::CampaignRunner warm(campaignConfig(dir, jobs));
    t0 = nowNs();
    const dmdc::CampaignResult wr = warm.runChecked(list);
    m.set("campaign.decode_us_per_run",
          span("campaign.warm_pass", t0) * 1e6 / n - load_us);
    checkCampaign(list, wr, ref, tally);
    const dmdc::CampaignStats &cs = w == WorkloadKind::CampaignWarm
        ? warm.lastStats() : first.lastStats();
    m.set("campaign.simulated", static_cast<double>(cs.simulated));
    m.set("campaign.disk_hits", static_cast<double>(cs.diskHits));
    m.set("campaign.retried", static_cast<double>(cs.retried));
    fs::remove_all(dir);
    fs::remove_all(store_dir);

    // ---- traced kernel runs over a sample of the list ----
    // A kernel round is the whole pool; campaign lists are sampled
    // kSample consecutive entries at a time.
    constexpr std::size_t kSample = 8;
    KernelLayers layers;
    std::vector<dmdc::SimOptions> round = list;
    std::size_t next = 0;
    std::uint64_t id = 1;
    do {
        if (kernel) {
            for (const dmdc::SimOptions &opt : round)
                traceKernelRun(opt, id++, ref, tally, layers);
            round = drawPass(w, rng);
        } else {
            for (std::size_t i = 0; i < kSample; ++i) {
                traceKernelRun(list[next], id++, ref, tally, layers);
                next = (next + 1) % list.size();
            }
        }
    } while (timeLeft(start, seconds));

    if (!layers.fidelityOk)
        return; // per-layer numbers of a diverging rebuild are invalid
    setKernelLayerMetrics(layers, m);
    fs::create_directories(work);
    writeTrace(work / (std::string("trace-") + workloadName(w) + "-" +
                       std::to_string(seed) + ".json"),
               spans, layers);
}

// ---------------------------------------------------------------------
// Reference generation.
// ---------------------------------------------------------------------

/**
 * Simulate every run any seed can draw, through Simulator::run and
 * through the traced rebuild (which supplies the warm-up committed
 * count and must agree on every pinned column), and write the table.
 */
int
writeReference(const std::string &path)
{
    std::vector<dmdc::SimOptions> runs;
    for (WorkloadKind w :
         {WorkloadKind::KernelBusy, WorkloadKind::KernelStall,
          WorkloadKind::CampaignCold, WorkloadKind::CampaignWarm}) {
        for (const dmdc::SimOptions &opt : allRuns(w))
            runs.push_back(opt);
    }
    ReferenceTable table;
    std::mutex mutex;
    std::size_t next = 0;
    bool ok = true;
    auto worker = [&] {
        for (;;) {
            std::size_t i;
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (next == runs.size())
                    return;
                i = next++;
            }
            const dmdc::SimOptions &opt = runs[i];
            try {
                const dmdc::SimResult r = dmdc::runSimulation(opt);
                const TracedKernelRun t = runTracedKernel(opt, i);
                const std::vector<std::string> values =
                    pinnedValues(r, t.warmupCommitted);
                std::lock_guard<std::mutex> lock(mutex);
                if (t.pinned != values) {
                    std::fprintf(stderr, "%s: traced rebuild disagrees\n",
                                 runKey(opt).c_str());
                    ok = false;
                }
                table.add(opt, values);
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(mutex);
                std::fprintf(stderr, "%s: %s\n", runKey(opt).c_str(),
                             e.what());
                ok = false;
            }
        }
    };
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < campaignJobs(); ++i)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
    if (!ok)
        return 1;
    std::ofstream out(path);
    out << table.format();
    std::fprintf(stderr, "wrote %zu reference rows to %s\n", table.size(),
                 path.c_str());
    return out ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (!args.writeReference.empty())
        return writeReference(args.writeReference);

    WorkloadKind w;
    if (!parseWorkload(args.workload, w))
        usage("unknown workload '" + args.workload + "'");
    ReferenceTable ref;
    std::string err;
    if (!ref.load(args.reference, err))
        usage(err);
    const fs::path work = args.workDir;
    fs::create_directories(work);

    Tally tally;
    MetricSet m;
    const std::vector<MetricSpec> &catalogue =
        args.trace ? perLayerMetrics() : endToEndMetrics();
    if (args.trace) {
        tracedMode(w, args.seed, args.seconds, work, ref, tally, m);
    } else {
        SeedRng rng(args.seed);
        switch (w) {
          case WorkloadKind::CampaignCold:
            campaignColdUntraced(rng, args.seconds, work, ref, tally, m);
            break;
          case WorkloadKind::CampaignWarm:
            campaignWarmUntraced(rng, args.seconds, work, ref, tally, m);
            break;
          default:
            kernelUntraced(w, rng, args.seconds, ref, tally, m);
            break;
        }
        m.set("peak_rss_mb", peakRssMb());
    }

    const std::vector<std::string> missing = m.missing(catalogue);
    const bool correct = tally.failed == 0 && missing.empty();
    for (const std::string &e : tally.errors)
        std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
    for (const std::string &name : missing)
        std::fprintf(stderr, "perfbench: no valid value for %s\n",
                     name.c_str());

    std::printf("workload %s, seed %llu, %s\n", workloadName(w),
                static_cast<unsigned long long>(args.seed),
                args.trace ? "traced (per-layer metrics)"
                           : "untraced (end-to-end metrics)");
    std::printf("%s", m.table(catalogue).c_str());
    std::printf("  %-34s %14.6g %-12s (%llu of %llu runs failed, timed "
                "out, skipped or mismatched)\n",
                "fail_frac",
                ratio(static_cast<double>(tally.failed),
                      static_cast<double>(tally.attempted)),
                "frac", static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    std::printf("%s\n",
                resultLine(correct, tally.attempted, tally.failed,
                           correct ? m.json(catalogue) : "{}")
                    .c_str());
    return correct ? 0 : 1;
}
