/**
 * @file
 * The benchmark's workloads: what each one runs, and how the seed
 * turns into the SimOptions the simulator sees.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace perfbench
{

enum class WorkloadKind
{
    KernelBusy,    ///< high-IPC pool, config 2, dmdc-global, serial
    KernelStall,   ///< low-IPC pool, config 3, baseline, serial
    CampaignCold,  ///< fig4 run list, empty cache, nproc workers
    CampaignWarm,  ///< fig4 run list shape, served from a warm cache
};

/** Parse a `--workload` name; false when unknown. */
bool parseWorkload(const std::string &name, WorkloadKind &out);

const char *workloadName(WorkloadKind w);

/** kernel-busy / kernel-stall (a serial Simulator loop). */
bool isKernel(WorkloadKind w);

/** Instruction budget of one run. */
struct Budget
{
    std::uint64_t warmup;
    std::uint64_t run;
};

/** Kernel workloads: 100 k warm-up + 1 M measured instructions. */
constexpr Budget kKernelBudget{100000, 1000000};
/** campaign-cold: the bench harnesses' default budget. */
constexpr Budget kColdBudget{30000, 200000};
/** campaign-warm: cache entries are as large at any budget, so the
 *  set-up that fills the cache uses a short one. */
constexpr Budget kWarmBudget{2000, 8000};

/** SimOptions of one kernel-workload run of @p benchmark. */
dmdc::SimOptions kernelOptions(WorkloadKind w,
                               const std::string &benchmark);

/** Every run any seed can draw for @p w, in canonical order. */
std::vector<dmdc::SimOptions> allRuns(WorkloadKind w);

/** Deterministic generator behind every seed-driven choice. */
class SeedRng
{
  public:
    explicit SeedRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** Fisher-Yates shuffle of @p v. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            const std::size_t j = static_cast<std::size_t>(next() % i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    std::uint64_t state_;
};

/**
 * The next pass of workload @p w: for a kernel workload one round
 * visiting every pool benchmark once, in a seed-drawn order; for a
 * campaign workload the whole run list in a seed-drawn submission
 * order. Successive calls on one generator give successive passes.
 */
std::vector<dmdc::SimOptions> drawPass(WorkloadKind w, SeedRng &rng);

/** Worker threads of a campaign workload: min(4, usable CPUs). */
unsigned campaignJobs();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
