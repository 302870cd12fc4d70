#include "sim/run_scheduler.hh"

#include <algorithm>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "common/random.hh"
#include "common/trace_sink.hh"
#include "sim/campaign_shard.hh"

namespace dmdc
{

std::vector<RunGroup>
groupRunsByIdentity(const std::vector<SimOptions> &runs)
{
    std::vector<RunGroup> groups;
    std::unordered_map<std::string, std::size_t> byKey;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const SimOptions &opt = runs[i];
        const std::string key = journalIdentity(
            opt.benchmark, opt.scheme, opt.configLevel);
        auto it = byKey.find(key);
        if (it == byKey.end()) {
            it = byKey.emplace(key, groups.size()).first;
            groups.push_back(
                {key, hashBytes(key.data(), key.size()), 0.0, {}});
        }
        RunGroup &g = groups[it->second];
        // Simulation cost is linear in the instruction budget; the
        // budget is the best machine-independent estimate available
        // before running.
        g.cost += static_cast<double>(opt.warmupInsts) +
                  static_cast<double>(opt.runInsts);
        g.members.push_back(i);
    }
    return groups;
}

std::vector<unsigned>
lptAssignGroups(const std::vector<RunGroup> &groups, unsigned bins)
{
    std::vector<unsigned> assignment(groups.size(), 0);
    if (bins <= 1 || groups.empty())
        return assignment;

    // Longest-processing-time greedy: place big groups first, each on
    // the currently least-loaded bin. The (hash, key) tie-breakers
    // make the order — and therefore the whole assignment — a pure
    // function of the group list.
    std::vector<std::size_t> order(groups.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const RunGroup &ga = groups[a];
                  const RunGroup &gb = groups[b];
                  return std::tie(gb.cost, ga.hash, ga.key) <
                         std::tie(ga.cost, gb.hash, gb.key);
              });
    std::vector<double> load(bins, 0.0);
    for (std::size_t idx : order) {
        std::size_t target = 0;
        for (std::size_t s = 1; s < load.size(); ++s) {
            if (load[s] < load[target])
                target = s;
        }
        load[target] += groups[idx].cost;
        assignment[idx] = static_cast<unsigned>(target);
    }
    return assignment;
}

namespace
{

/** Group a flat item list by identity (items sharing an identity form
 *  one RunGroup whose members index the item vector). */
std::vector<RunGroup>
groupItems(const std::vector<ScheduledRun> &items)
{
    std::vector<RunGroup> groups;
    std::unordered_map<std::string, std::size_t> byKey;
    for (std::size_t i = 0; i < items.size(); ++i) {
        const ScheduledRun &r = items[i];
        auto it = byKey.find(r.identity);
        if (it == byKey.end()) {
            it = byKey.emplace(r.identity, groups.size()).first;
            groups.push_back({r.identity,
                              hashBytes(r.identity.data(),
                                        r.identity.size()),
                              0.0, {}});
        }
        RunGroup &g = groups[it->second];
        g.cost += r.cost;
        g.members.push_back(i);
    }
    return groups;
}

} // namespace

void
RunScheduler::seed(std::vector<ScheduledRun> items, unsigned workers)
{
    // The seed places whole identity groups, biggest first, so each
    // deque starts with a balanced, co-located slice.
    workers_ = std::max(1u, workers);
    deques_.clear();
    for (unsigned w = 0; w < workers_; ++w)
        deques_.push_back(std::make_unique<Deque>());
    const std::vector<RunGroup> groups = groupItems(items);
    const std::vector<unsigned> bins = lptAssignGroups(groups, workers_);
    for (std::size_t g = 0; g < groups.size(); ++g) {
        Deque &d = *deques_[bins[g]];
        for (std::size_t member : groups[g].members)
            d.q.push_back(std::move(items[member]));
    }
    for (const auto &d : deques_)
        d->size.store(d->q.size(), std::memory_order_relaxed);
}

bool
RunScheduler::popOwn(unsigned worker, ScheduledRun &out)
{
    Deque &d = *deques_[worker];
    std::lock_guard<std::mutex> lock(d.m);
    if (d.q.empty())
        return false;
    out = std::move(d.q.front());
    d.q.pop_front();
    d.size.fetch_sub(1, std::memory_order_relaxed);
    return true;
}

bool
RunScheduler::next(unsigned worker, ScheduledRun &out)
{
    const unsigned w = worker % workers_;
    for (;;) {
        if (popOwn(w, out))
            return true;
        // Pick the victim with the most unclaimed work (sizes are
        // racy hints; the steal itself revalidates under lock).
        unsigned victim = w;
        std::size_t most = 0;
        for (unsigned v = 0; v < workers_; ++v) {
            if (v == w)
                continue;
            const std::size_t sz =
                deques_[v]->size.load(std::memory_order_relaxed);
            if (sz > most) {
                most = sz;
                victim = v;
            }
        }
        if (most == 0)
            return false; // nothing unclaimed anywhere
        stealHalf(victim, w);
        // Retry even if the steal raced empty: another thief may
        // have taken it, but then its deque drains toward the
        // `most == 0` exit.
    }
}

void
RunScheduler::stealHalf(unsigned victim, unsigned thief)
{
    Deque &v = *deques_[victim];
    Deque &t = *deques_[thief];
    // Deadlock-free: every thief locks in index order.
    Deque &first = victim < thief ? v : t;
    Deque &second = victim < thief ? t : v;
    std::lock_guard<std::mutex> l1(first.m);
    std::lock_guard<std::mutex> l2(second.m);
    // Take the *back* half: the owner works from the front, so the
    // steal touches the work it would reach last.
    const std::size_t n = (v.q.size() + 1) / 2;
    for (std::size_t i = 0; i < n; ++i) {
        t.q.push_back(std::move(v.q.back()));
        v.q.pop_back();
    }
    v.size.fetch_sub(n, std::memory_order_relaxed);
    t.size.fetch_add(n, std::memory_order_relaxed);
    static TraceCategory &cat = traceCategory("runner");
    static const std::uint16_t steal = traceNameId("steal");
    traceInstantArg(cat, steal, n);
}

unsigned
defaultWorkerCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace dmdc
