/**
 * @file
 * Workload definitions and seed-driven run selection.
 */

#include "workloads.hh"

#include <sched.h>

#include <algorithm>

#include "trace/spec_suite.hh"

namespace perfbench
{

namespace
{

struct WorkloadInfo
{
    WorkloadKind kind;
    const char *name;
};

constexpr WorkloadInfo kWorkloads[] = {
    {WorkloadKind::KernelBusy, "kernel-busy"},
    {WorkloadKind::KernelStall, "kernel-stall"},
    {WorkloadKind::CampaignCold, "campaign-cold"},
    {WorkloadKind::CampaignWarm, "campaign-warm"},
};

/** Benchmark pool a kernel workload draws from. */
const std::vector<std::string> &
kernelPool(WorkloadKind w)
{
    static const std::vector<std::string> busy = {
        "sixtrack", "crafty", "mesa", "eon", "gzip"};
    static const std::vector<std::string> stall = {
        "mcf", "ammp", "parser", "gap", "equake"};
    return w == WorkloadKind::KernelStall ? stall : busy;
}

/** The fig4_dmdc_main run list: the 26 benchmarks x configs 1-3 x
 *  {baseline, dmdc-global}, in canonical order. */
std::vector<dmdc::SimOptions>
fig4RunList(Budget budget)
{
    std::vector<dmdc::SimOptions> runs;
    for (unsigned level = 1; level <= 3; ++level) {
        for (const char *scheme : {"baseline", "dmdc-global"}) {
            for (const std::string &bench : dmdc::specAllNames()) {
                dmdc::SimOptions opt;
                opt.benchmark = bench;
                opt.configLevel = level;
                opt.scheme = scheme;
                opt.warmupInsts = budget.warmup;
                opt.runInsts = budget.run;
                runs.push_back(opt);
            }
        }
    }
    return runs;
}

} // namespace

bool
parseWorkload(const std::string &name, WorkloadKind &out)
{
    for (const WorkloadInfo &w : kWorkloads) {
        if (name == w.name) {
            out = w.kind;
            return true;
        }
    }
    return false;
}

const char *
workloadName(WorkloadKind w)
{
    for (const WorkloadInfo &info : kWorkloads) {
        if (info.kind == w)
            return info.name;
    }
    return "?";
}

bool
isKernel(WorkloadKind w)
{
    return w == WorkloadKind::KernelBusy ||
           w == WorkloadKind::KernelStall;
}

dmdc::SimOptions
kernelOptions(WorkloadKind w, const std::string &benchmark)
{
    dmdc::SimOptions opt;
    opt.benchmark = benchmark;
    opt.warmupInsts = kKernelBudget.warmup;
    opt.runInsts = kKernelBudget.run;
    if (w == WorkloadKind::KernelStall) {
        opt.configLevel = 3;
        opt.scheme = "baseline";
    } else {
        opt.configLevel = 2;
        opt.scheme = "dmdc-global";
    }
    return opt;
}

std::vector<dmdc::SimOptions>
allRuns(WorkloadKind w)
{
    switch (w) {
      case WorkloadKind::CampaignCold:
        return fig4RunList(kColdBudget);
      case WorkloadKind::CampaignWarm:
        return fig4RunList(kWarmBudget);
      default: {
        std::vector<dmdc::SimOptions> runs;
        for (const std::string &bench : kernelPool(w))
            runs.push_back(kernelOptions(w, bench));
        return runs;
      }
    }
}

std::uint64_t
SeedRng::next()
{
    // SplitMix64: the same sequence on every platform and library.
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<dmdc::SimOptions>
drawPass(WorkloadKind w, SeedRng &rng)
{
    std::vector<dmdc::SimOptions> pass = allRuns(w);
    rng.shuffle(pass);
    return pass;
}

unsigned
campaignJobs()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    int cpus = 1;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        cpus = std::max(1, CPU_COUNT(&set));
    return static_cast<unsigned>(std::min(cpus, 4));
}

} // namespace perfbench
