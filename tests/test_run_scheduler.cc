/**
 * @file
 * Tests of the run scheduler (sim/run_scheduler.hh): the exactly-once
 * claim contract under real thread contention and the determinism of
 * the LPT partition it (and --shard) seeds from.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/run_scheduler.hh"

namespace dmdc
{
namespace
{

std::vector<ScheduledRun>
makeRuns(std::size_t n, std::size_t identities)
{
    std::vector<ScheduledRun> runs;
    for (std::size_t i = 0; i < n; ++i) {
        ScheduledRun r;
        r.index = i;
        r.identity = "id-" + std::to_string(i % identities);
        r.cost = 1000.0 + 100.0 * static_cast<double>(i % 5);
        runs.push_back(r);
    }
    return runs;
}

/** Drain the scheduler from @p workers real threads; return every
 *  claimed index (with duplicates preserved, so the exactly-once
 *  check can see double claims). */
std::vector<std::size_t>
drainConcurrently(RunScheduler &sched, unsigned workers)
{
    std::mutex m;
    std::vector<std::size_t> claimed;
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            ScheduledRun item;
            while (sched.next(w, item)) {
                std::lock_guard<std::mutex> guard(m);
                claimed.push_back(item.index);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    return claimed;
}

TEST(RunScheduler, WorkStealingClaimsEachRunExactlyOnce)
{
    for (int round = 0; round < 20; ++round) {
        RunScheduler sched;
        const std::size_t n = 64;
        sched.seed(makeRuns(n, 16), 4);
        auto claimed = drainConcurrently(sched, 4);

        ASSERT_EQ(claimed.size(), n) << "round " << round;
        std::sort(claimed.begin(), claimed.end());
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(claimed[i], i)
                << "round " << round << ": run " << i
                << " lost or double-claimed";
    }
}

TEST(RunScheduler, LptAssignmentIsDeterministic)
{
    const auto runs = makeRuns(40, 10);
    std::vector<SimOptions> opts;
    for (const auto &r : runs) {
        SimOptions o;
        o.benchmark = r.identity;
        o.runInsts = 20000;
        opts.push_back(o);
    }
    const auto groups = groupRunsByIdentity(opts);
    ASSERT_EQ(groups.size(), 10u);
    const auto a = lptAssignGroups(groups, 4);
    const auto b = lptAssignGroups(groups, 4);
    EXPECT_EQ(a, b);
    for (unsigned bin : a)
        EXPECT_LT(bin, 4u);
}

} // namespace
} // namespace dmdc
