/**
 * @file
 * google-benchmark microbenchmarks of the simulator kernel fast
 * paths: DynInst pool recycling vs. heap allocation, the store
 * queue's O(1) safe-load check and binary-search load probe, the
 * checking table's occupancy pre-filter, the cost of an empty
 * pipeline tick vs. one bulk-skipped idle cycle, busy ticks that
 * wake, select and complete every cycle (config 2, and config 3's
 * 512-entry ROB), synthetic workload generation
 * (correct-path and wrong-path ops), and the trace-sink call sites
 * (disabled vs. recording). These document the
 * kernel-performance architecture (DESIGN.md Sec. 14) and guard the
 * fast paths against accidental complexity regressions.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/object_pool.hh"
#include "common/random.hh"
#include "common/trace_sink.hh"
#include "core/pipeline.hh"
#include "lsq/checking_table.hh"
#include "lsq/store_queue.hh"
#include "sim/machine_config.hh"
#include "trace/spec_suite.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace dmdc;

// ---- DynInst lifetime: pool recycling vs. the heap ------------------

void
BM_PoolAcquireRelease(benchmark::State &state)
{
    ObjectPool<DynInst> pool(256);
    for (auto _ : state) {
        DynInst *inst = pool.acquire();
        inst->seq = 1;
        benchmark::DoNotOptimize(inst);
        pool.release(inst);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAcquireRelease);

void
BM_HeapAllocFree(benchmark::State &state)
{
    for (auto _ : state) {
        auto inst = std::make_unique<DynInst>();
        inst->seq = 1;
        benchmark::DoNotOptimize(inst.get());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapAllocFree);

// Steady-state churn at ROB-ish occupancy: allocate a burst, retire
// the oldest — the pipeline's actual usage pattern.
void
BM_PoolChurn(benchmark::State &state)
{
    const unsigned live = static_cast<unsigned>(state.range(0));
    ObjectPool<DynInst> pool(live + 8);
    std::vector<DynInst *> window;
    for (unsigned i = 0; i < live; ++i)
        window.push_back(pool.acquire());
    std::size_t head = 0;
    for (auto _ : state) {
        pool.release(window[head]);
        window[head] = pool.acquire();
        head = (head + 1) % window.size();
    }
    for (DynInst *inst : window)
        pool.release(inst);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolChurn)->Arg(64)->Arg(256);

// ---- store queue fast paths -----------------------------------------

/** Build a full SQ; @p unresolved_every marks every Nth store
 *  address-unresolved (0 = all resolved). */
std::vector<std::unique_ptr<DynInst>>
makeStores(StoreQueue &sq, unsigned count, unsigned unresolved_every)
{
    Rng rng(7);
    std::vector<std::unique_ptr<DynInst>> stores;
    for (unsigned i = 0; i < count; ++i) {
        auto inst = std::make_unique<DynInst>();
        inst->seq = i + 1;
        inst->op.cls = OpClass::Store;
        inst->op.effAddr = rng.range(1 << 20) & ~Addr{7};
        inst->op.memSize = 8;
        inst->sqAddrReady =
            !(unresolved_every && (i % unresolved_every) == 0);
        inst->sqDataReady = inst->sqAddrReady;
        sq.allocate(inst.get());
        stores.push_back(std::move(inst));
    }
    return stores;
}

void
BM_SqAllOlderResolved(benchmark::State &state)
{
    const unsigned sq_size = static_cast<unsigned>(state.range(0));
    StoreQueue sq(sq_size);
    auto stores = makeStores(sq, sq_size, 8);
    SeqNum seq = 0;
    for (auto _ : state) {
        seq = (seq + 1) % (sq_size + 2);
        benchmark::DoNotOptimize(sq.allOlderResolved(seq));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqAllOlderResolved)->Arg(48)->Arg(192);

/**
 * checkLoad for a load OLDER than most of the queue: the binary
 * search skips the younger suffix instead of walking it entry by
 * entry, so cost no longer scales with SQ occupancy.
 */
void
BM_SqCheckLoadOldLoad(benchmark::State &state)
{
    const unsigned sq_size = static_cast<unsigned>(state.range(0));
    StoreQueue sq(sq_size);
    auto stores = makeStores(sq, sq_size, 0);
    Addr addr = 0;
    for (auto _ : state) {
        addr = (addr + 8) & ((1 << 20) - 1);
        benchmark::DoNotOptimize(sq.checkLoad(2, addr & ~Addr{7}, 8));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqCheckLoadOldLoad)->Arg(48)->Arg(192);

/** checkLoad for a load younger than the whole queue (full scan). */
void
BM_SqCheckLoadYoungLoad(benchmark::State &state)
{
    const unsigned sq_size = static_cast<unsigned>(state.range(0));
    StoreQueue sq(sq_size);
    auto stores = makeStores(sq, sq_size, 0);
    Addr addr = 0;
    for (auto _ : state) {
        addr = (addr + 8) & ((1 << 20) - 1);
        benchmark::DoNotOptimize(
            sq.checkLoad(sq_size + 1, addr & ~Addr{7}, 8));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqCheckLoadYoungLoad)->Arg(48)->Arg(192);

// ---- checking-table occupancy pre-filter ----------------------------

void
BM_CheckingTableMissFastPath(benchmark::State &state)
{
    CheckingTable table(2048);
    GhostStoreRecord g;
    g.addr = 0x1000;
    g.size = 8;
    table.markStore(0x1000, 8, g);
    // Probe a sweep of addresses; almost every probe misses and takes
    // the occupancy-word early-out.
    Addr addr = 0;
    for (auto _ : state) {
        addr = (addr + 8) & ((1 << 22) - 1);
        benchmark::DoNotOptimize(table.checkLoad(addr & ~Addr{7}, 8));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CheckingTableMissFastPath);

// ---- empty tick vs. skipped tick ------------------------------------

/**
 * A pipeline that can never fetch (fetch queue size 0) executes a
 * pure empty tick every cycle: the full stage walk with nothing to
 * do. skipIdleCycles() is the bulk replacement the event-driven
 * skip substitutes for those ticks.
 */
CoreParams
idleParams()
{
    CoreParams p = makeMachineConfig(2);
    applyScheme(p, "dmdc-global");
    p.fetchQueueSize = 0;
    return p;
}

void
BM_EmptyTick(benchmark::State &state)
{
    auto w = makeSpecWorkload("gzip");
    Pipeline pipe(idleParams(), *w);
    for (auto _ : state)
        benchmark::DoNotOptimize(pipe.tick());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmptyTick);

void
BM_SkippedTick(benchmark::State &state)
{
    auto w = makeSpecWorkload("gzip");
    Pipeline pipe(idleParams(), *w);
    for (auto _ : state)
        pipe.skipIdleCycles(1);
    benchmark::DoNotOptimize(pipe.now());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SkippedTick);

void
BM_SkippedTickBulk(benchmark::State &state)
{
    auto w = makeSpecWorkload("gzip");
    Pipeline pipe(idleParams(), *w);
    for (auto _ : state)
        pipe.skipIdleCycles(1024);
    benchmark::DoNotOptimize(pipe.now());
    // One skip call covers 1024 cycles.
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SkippedTickBulk);

// ---- busy ticks: wakeup, select and completion --------------------

/** Ticks of a pipeline warmed up by 20 k committed instructions. */
void
busyTicks(benchmark::State &state, unsigned config, const char *scheme,
          const char *bench)
{
    CoreParams p = makeMachineConfig(config);
    applyScheme(p, scheme);
    auto w = makeSpecWorkload(bench);
    Pipeline pipe(p, *w);
    while (pipe.committed() < 20000)
        pipe.tick();
    const std::uint64_t committed = pipe.committed();
    for (auto _ : state)
        benchmark::DoNotOptimize(pipe.tick());
    state.SetItemsProcessed(state.iterations());
    state.counters["ipc"] = benchmark::Counter(
        static_cast<double>(pipe.committed() - committed) /
        static_cast<double>(state.iterations()));
}

/**
 * One tick of a warm high-IPC pipeline (sixtrack, config 2,
 * dmdc-global): completions wake consumers and select issues from the
 * ready sets nearly every cycle. BM_EmptyTick never selects anything.
 */
void
BM_BusyTick(benchmark::State &state)
{
    busyTicks(state, 2, "dmdc-global", "sixtrack");
}
BENCHMARK(BM_BusyTick);

/**
 * The same on config 3's 512-entry ROB (equake, baseline): the most
 * completions in flight, so the completion structure's schedule,
 * drain and squash purge cost the most here.
 */
void
BM_BusyTickWide(benchmark::State &state)
{
    busyTicks(state, 3, "baseline", "equake");
}
BENCHMARK(BM_BusyTickWide);

// ---- workload generation -------------------------------------------

/** The kernel-busy benchmark pool (high-IPC, generation-bound). */
std::vector<std::unique_ptr<SyntheticWorkload>>
busyPool()
{
    std::vector<std::unique_ptr<SyntheticWorkload>> pool;
    for (const char *name : {"sixtrack", "crafty", "mesa", "eon", "gzip"})
        pool.push_back(makeSpecWorkload(name));
    return pool;
}

/**
 * One correct-path op() per iteration, round-robin over the busy
 * pool, each workload discarding ops as a ROB-sized commit lag
 * retires them: the generator's per-op cost as the pipeline sees it.
 */
void
BM_WorkloadOp(benchmark::State &state)
{
    constexpr std::uint64_t lag = 256;
    auto pool = busyPool();
    std::size_t k = 0;
    std::uint64_t index = 0;
    for (auto _ : state) {
        Workload &w = *pool[k];
        benchmark::DoNotOptimize(w.op(index).effAddr);
        if (index >= lag)
            w.discardBefore(index - lag);
        if (++k == pool.size()) {
            k = 0;
            ++index;
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadOp);

/** One wrong-path op per iteration at in-region PCs (every pool
 *  member has over 1024 static slots), fresh salts. */
void
BM_WrongPathOp(benchmark::State &state)
{
    auto pool = busyPool();
    std::size_t k = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        Workload &w = *pool[k];
        const Addr pc = pool[k]->codeBase() + 4 * ((i * 13) & 1023);
        benchmark::DoNotOptimize(w.wrongPathOp(pc, i).effAddr);
        ++i;
        if (++k == pool.size())
            k = 0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WrongPathOp);

// ---- trace-sink call sites ------------------------------------------

/**
 * Tracing is compiled into the kernel hot paths unconditionally, so
 * the disabled call site IS the tracing-off overhead budget (DESIGN.md
 * Sec. 17: <= 1% of sim-kHz). It must stay one relaxed atomic load.
 */
void
BM_TraceInstantDisabled(benchmark::State &state)
{
    TraceCategory &cat = traceCategory("bench-trace-off");
    const std::uint16_t name = traceNameId("bench-evt");
    std::uint64_t i = 0;
    for (auto _ : state)
        traceInstantArg(cat, name, ++i);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceInstantDisabled);

void
BM_TraceInstantEnabled(benchmark::State &state)
{
    TraceOptions opt;
    opt.channels = "bench-trace-on";
    opt.bufferRecords = 4096;
    traceConfigure(opt);
    TraceCategory &cat = traceCategory("bench-trace-on");
    const std::uint16_t name = traceNameId("bench-evt");
    std::uint64_t i = 0;
    for (auto _ : state)
        traceInstantArg(cat, name, ++i);
    state.SetItemsProcessed(state.iterations());
    traceConfigure(TraceOptions{});
    traceReset();
}
BENCHMARK(BM_TraceInstantEnabled);

void
BM_TraceSpanDisabled(benchmark::State &state)
{
    TraceCategory &cat = traceCategory("bench-trace-off");
    const std::uint16_t name = traceNameId("bench-span");
    for (auto _ : state) {
        TraceSpan span(cat, name);
        benchmark::DoNotOptimize(&span);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanDisabled);

void
BM_TraceSpanEnabled(benchmark::State &state)
{
    TraceOptions opt;
    opt.channels = "bench-trace-on";
    opt.bufferRecords = 4096;
    traceConfigure(opt);
    TraceCategory &cat = traceCategory("bench-trace-on");
    const std::uint16_t name = traceNameId("bench-span");
    for (auto _ : state) {
        TraceSpan span(cat, name);
        benchmark::DoNotOptimize(&span);
    }
    state.SetItemsProcessed(state.iterations());
    traceConfigure(TraceOptions{});
    traceReset();
}
BENCHMARK(BM_TraceSpanEnabled);

/** The full per-cycle phase instrumentation, recording: four spans
 *  per tick on the "kernel-phases" category. Compare to BM_EmptyTick
 *  (same tick, tracing off) for the worst-case enabled overhead. */
void
BM_EmptyTickTraced(benchmark::State &state)
{
    TraceOptions opt;
    opt.channels = "kernel-phases";
    opt.bufferRecords = 4096;
    traceConfigure(opt);
    auto w = makeSpecWorkload("gzip");
    Pipeline pipe(idleParams(), *w);
    for (auto _ : state)
        benchmark::DoNotOptimize(pipe.tick());
    state.SetItemsProcessed(state.iterations());
    traceConfigure(TraceOptions{});
    traceReset();
}
BENCHMARK(BM_EmptyTickTraced);

} // namespace

BENCHMARK_MAIN();
