/**
 * @file
 * Pluggable placement of campaign runs onto worker threads.
 *
 * Two policies share one grouping rule — runs with equal journal
 * identity (benchmark, scheme, config) always co-locate, because
 * splitting a repeated triple across executors breaks the journal
 * merger's disjointness invariant and wastes duplicate simulations:
 *
 *  - StaticLpt: the shard partitioner's longest-processing-time
 *    greedy, applied to threads instead of processes. Deterministic
 *    placement, zero coordination after seeding; a worker that drains
 *    its bin stops. This is the same pure function `--shard` uses, so
 *    a thread-level and a process-level split of one campaign agree
 *    about who owns what.
 *
 *  - WorkStealing: the same LPT seeding, but a worker that drains its
 *    own deque steals the back half of the fullest victim's. Cost
 *    estimates (instruction budgets) are only estimates — timeouts,
 *    retries, and cache hits skew real run times — and stealing
 *    absorbs the skew without giving up the locality of the seed.
 *    Queues also accept runs submitted after workers have started,
 *    which is what lets the dmdc_serve daemon multiplex late-arriving
 *    campaigns onto one shared pool.
 *
 * The scheduler only decides *placement and order*; execution,
 * isolation, and caching stay in CampaignRunner.
 */

#ifndef DMDC_SIM_RUN_SCHEDULER_HH
#define DMDC_SIM_RUN_SCHEDULER_HH

#include <cstdint>
#include <memory>
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
 * shardAssignment() and StaticLpt are both built on this.
 */
std::vector<unsigned> lptAssignGroups(const std::vector<RunGroup> &groups,
                                      unsigned bins);

/** Placement policies selectable via --scheduler. */
enum class SchedulerKind
{
    WorkStealing, ///< LPT-seeded deques + steal-half (default)
    StaticLpt,    ///< pure LPT partition, no rebalancing
};

const char *schedulerKindName(SchedulerKind kind);
bool parseSchedulerKind(const std::string &name, SchedulerKind &out,
                        std::string &err);

/**
 * Distributes ScheduledRuns across a fixed number of worker slots.
 * Thread-safe: each worker calls next() from its own thread, and
 * submit() may race with running workers (work-stealing only grows
 * queues; claimed runs never reappear).
 */
class RunScheduler
{
  public:
    virtual ~RunScheduler() = default;

    /** Place @p items across @p workers queues. Call once, before the
     *  workers start; later additions go through submit(). */
    virtual void seed(std::vector<ScheduledRun> items,
                      unsigned workers) = 0;

    /** Enqueue one more run after seeding (co-located by identity). */
    virtual void submit(ScheduledRun item) = 0;

    /**
     * Claim the next run for worker @p worker. Returns false when no
     * unclaimed run remains anywhere (for StaticLpt: in this worker's
     * bin). Each seeded/submitted run is returned exactly once across
     * all workers.
     */
    virtual bool next(unsigned worker, ScheduledRun &out) = 0;
};

std::unique_ptr<RunScheduler> makeRunScheduler(SchedulerKind kind);

/** Worker slots when none are requested: hardware_concurrency(),
 *  clamped to at least 1. */
unsigned defaultWorkerCount();

} // namespace dmdc

#endif // DMDC_SIM_RUN_SCHEDULER_HH
