/**
 * @file
 * Low-overhead campaign tracing: per-thread lock-free ring buffers
 * feeding a Chrome trace-event (chrome://tracing / Perfetto) exporter.
 *
 * The process's one diagnostics backend. Printing a stderr line per
 * event would be fine for debugging a single run but unusably slow at
 * campaign scale and invisible to tools, so this sink instead records
 * ~32-byte POD events into a fixed-capacity per-thread ring
 * (overwrite-oldest, sequence-stamped) and defers all formatting to
 * export time, so a traced campaign keeps its parallel throughput and
 * an untraced one pays a single relaxed atomic load per call site.
 *
 * Vocabulary: duration spans (TraceSpan, exported as Chrome "X"
 * complete events), instants ("i") and counters ("C"). Category and
 * event names are interned once into 16-bit ids; the hot path never
 * touches a string.
 *
 * Concurrency model: each ring has exactly one writer (the owning
 * thread, via a thread_local handle) and any thread may snapshot it.
 * Every slot carries a seqlock-style stamp — odd while the writer is
 * mid-copy, 2*(seq+1) once published — and the payload words are
 * atomics, so a concurrent snapshot simply discards torn or
 * overwritten slots instead of racing (TSan-clean by construction).
 * Rings are registered with the process-wide sink as shared_ptrs and
 * survive thread exit, so the at-exit exporter still sees records
 * from campaign workers that have already been joined.
 *
 * One file per process: every process stamps times from its own
 * first-use epoch, so traces of concurrent processes are read side by
 * side, not merged. The campaign CLI names the default file after the
 * pid (trace.<pid>.json) so concurrent processes never overwrite each
 * other.
 */

#ifndef DMDC_COMMON_TRACE_SINK_HH
#define DMDC_COMMON_TRACE_SINK_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace dmdc
{

/**
 * Process-wide tracing configuration, normally parsed from
 * --trace=<channels|all> / --trace-out=<path> by sim/cli_options.
 * Diagnostics only: never part of a run-cache key, never affects
 * simulation results or deterministic journals.
 */
struct TraceOptions
{
    /** Comma-separated channel/category list, or "all"; empty = off. */
    std::string channels;
    /** Chrome trace-event JSON written at exit (or traceFlush()). */
    std::string outPath = "trace.json";
    /** Per-thread ring capacity in records (rounded up to 2^k). */
    std::uint64_t bufferRecords = 65536;

    bool enabled() const { return !channels.empty(); }
};

/** Event kinds; values are the Chrome trace-event "ph" letters. */
enum class TraceEventKind : std::uint8_t
{
    Complete = 'X', ///< span with duration (TraceSpan)
    Instant  = 'i',
    Counter  = 'C',
};

/**
 * One interned trace category ("kernel", "runner", ...). Stable
 * address for the process lifetime; the hot-path enablement test is
 * one relaxed atomic load.
 */
class TraceCategory
{
  public:
    bool on() const { return enabled_.load(std::memory_order_relaxed); }
    const std::string &name() const { return name_; }
    std::uint16_t id() const { return id_; }

  private:
    friend class TraceSink;
    TraceCategory(std::string name, std::uint16_t id)
        : name_(std::move(name)), id_(id)
    {}

    std::string name_;
    std::uint16_t id_;
    std::atomic<bool> enabled_{false};
};

/** A decoded trace record (the in-ring form packs this into 5 u64s). */
struct TraceRecord
{
    std::uint64_t seq = 0;   ///< per-ring publication order
    std::uint64_t tsNs = 0;  ///< ns since the process trace epoch
    std::uint64_t arg = 0;   ///< duration ns (Complete) / value
    std::uint16_t category = 0;
    std::uint16_t name = 0;
    TraceEventKind kind = TraceEventKind::Instant;
    bool hasArg = false;
};

/**
 * Intern @p name, returning a stable category with process lifetime.
 * Safe from any thread, any time (including before configuration);
 * a freshly interned category immediately reflects the active channel
 * set. Beyond the table cap every name maps to the shared "overflow"
 * category.
 */
TraceCategory &traceCategory(const char *name);

/**
 * Intern an event name into a 16-bit id. Call sites intern once into
 * a local static (or emit per-run identities such as
 * "gzip|dmdc|cfg3"); beyond the cap (kTraceMaxNames) the shared
 * "<overflow>" id 0 is returned.
 */
std::uint16_t traceNameId(const std::string &name);
constexpr std::size_t kTraceMaxNames = 4096;

/**
 * (Re)configure process-wide tracing: sets the active channel set,
 * the output path, and the per-thread ring capacity, and arms an
 * at-exit export. Empty
 * channels disables capture. Callable repeatedly — tests reconfigure
 * without re-exec; rings created under an old capacity are retired
 * (generation bump) rather than resized.
 */
void traceConfigure(const TraceOptions &options);

/** Monotonic ns since the process trace epoch (first-use anchored). */
std::uint64_t traceNowNs();

/**
 * Name the calling thread in the exported trace (Chrome thread_name
 * metadata); campaign workers call this once at thread start.
 */
void traceSetThreadName(const std::string &name);

/** Record an instant event; no-op unless @p cat is enabled. */
void traceInstant(TraceCategory &cat, std::uint16_t name);
/** Instant with one numeric argument (exported as args.v). */
void traceInstantArg(TraceCategory &cat, std::uint16_t name,
                     std::uint64_t arg);
/** Record a counter sample (exported as a Chrome "C" event). */
void traceCounter(TraceCategory &cat, std::uint16_t name,
                  std::uint64_t value);

/**
 * RAII duration span: captures the start timestamp when constructed
 * on an enabled category and publishes ONE Complete record (with
 * duration) at destruction — half the record volume of begin/end
 * pairs and no unbalanced-span failure mode.
 */
class TraceSpan
{
  public:
    TraceSpan(TraceCategory &cat, std::uint16_t name)
        : cat_(cat.on() ? &cat : nullptr), name_(name),
          startNs_(cat_ ? traceNowNs() : 0)
    {}
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    TraceCategory *cat_;
    std::uint16_t name_;
    std::uint64_t startNs_;
};

/**
 * Merge every per-thread ring (including rings of exited threads)
 * and write one Chrome trace-event JSON file to @p path. Records are
 * globally ordered by timestamp; torn or mid-overwrite slots are
 * skipped. Loss is never silent: each ring gets one
 * "trace_records_lost" metadata event ("ph":"M", args.lost = highest
 * sequence number held + 1 - records held), and the first export
 * that lost anything warn()s once. Returns false + @p err on I/O
 * failure. Exports even when capture is inactive (the file then holds
 * only metadata events).
 */
bool traceExportChrome(const std::string &path, std::string &err);

/** Export to the configured outPath now (no-op when unconfigured). */
void traceFlush();

/**
 * Drop all buffered records and thread registrations (generation
 * bump; live threads re-register on their next event). Test hook.
 */
void traceReset();

} // namespace dmdc

#endif // DMDC_COMMON_TRACE_SINK_HH
