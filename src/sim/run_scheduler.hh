/**
 * @file
 * Placement of campaign runs onto worker threads.
 *
 * Runs with equal journal identity (benchmark, scheme, config) always
 * co-locate, because splitting a repeated triple across executors
 * breaks the journal merger's disjointness invariant and wastes
 * duplicate simulations. The per-worker deques are seeded with the
 * shard partitioner's longest-processing-time greedy, applied to
 * threads instead of processes; a worker that drains its own deque
 * steals the back half of the fullest victim's. Cost estimates
 * (instruction budgets) are only estimates — timeouts, retries, and
 * cache hits skew real run times — and stealing absorbs the skew
 * without giving up the locality of the seed.
 *
 * The scheduler only decides *placement and order*; execution,
 * isolation, and caching stay in CampaignRunner.
 */

#ifndef DMDC_SIM_RUN_SCHEDULER_HH
#define DMDC_SIM_RUN_SCHEDULER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace dmdc
{

/** One schedulable unit: an opaque caller index plus what placement
 *  needs to know (co-location key and a cost estimate). */
struct ScheduledRun
{
    std::size_t index = 0;  ///< caller's handle (e.g. pending slot)
    std::string identity;   ///< journal identity; equal ids co-locate
    double cost = 0.0;      ///< estimated work (instruction budget)
};

/** A group of runs sharing one journal identity. */
struct RunGroup
{
    std::string key;
    std::uint64_t hash = 0; ///< deterministic tie-breaker
    double cost = 0.0;      ///< summed member cost
    std::vector<std::size_t> members; ///< indices into the run list
};

/** Group @p runs by journal identity, accumulating instruction-budget
 *  cost per group. Order of first appearance. */
std::vector<RunGroup> groupRunsByIdentity(
    const std::vector<SimOptions> &runs);

/**
 * Longest-processing-time greedy: big groups first, each placed on
 * the least-loaded of @p bins. Returns one bin per group. The (hash,
 * key) tie-breakers make the result a pure function of the input —
 * shardAssignment() and the RunScheduler seed are both built on this.
 */
std::vector<unsigned> lptAssignGroups(const std::vector<RunGroup> &groups,
                                      unsigned bins);

/**
 * Distributes ScheduledRuns across a fixed number of worker slots:
 * LPT-seeded per-worker deques plus steal-half rebalancing.
 * Thread-safe: each worker calls next() from its own thread.
 */
class RunScheduler
{
  public:
    /** Place @p items across @p workers queues. Call once, before the
     *  workers start. */
    void seed(std::vector<ScheduledRun> items, unsigned workers);

    /**
     * Claim the next run for worker @p worker. Returns false when no
     * unclaimed run remains anywhere. Each seeded run is returned
     * exactly once across all workers.
     */
    bool next(unsigned worker, ScheduledRun &out);

  private:
    struct Deque
    {
        std::mutex m;
        std::deque<ScheduledRun> q;
        std::atomic<std::size_t> size{0};
    };

    bool popOwn(unsigned worker, ScheduledRun &out);
    void stealHalf(unsigned victim, unsigned thief);

    unsigned workers_ = 1;
    std::vector<std::unique_ptr<Deque>> deques_;
};

/** Worker slots when none are requested: hardware_concurrency(),
 *  clamped to at least 1. */
unsigned defaultWorkerCount();

} // namespace dmdc

#endif // DMDC_SIM_RUN_SCHEDULER_HH
