/**
 * @file
 * Implementation of the lock-free trace sink and Chrome exporter.
 *
 * Seqlock discipline (Boehm, "Can seqlocks get along with programming
 * language memory models?", the variant without fences): the writer
 * stamps a slot odd, stores the payload words with release, then
 * publishes the even stamp with release; a reader loads the stamp with
 * acquire, reads the payload with acquire, and re-reads the stamp. A
 * payload word a newer writer stored carries that writer's odd stamp
 * with it, so the re-read sees the change; any mismatch or odd value
 * means the slot was torn mid-copy and is skipped. Payload words are
 * themselves atomics, so even a discarded read is well-defined. There
 * is no fence for TSan to miss (`-Wtsan`), and on x86 release stores
 * and acquire loads are plain moves.
 */

#include "common/trace_sink.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace dmdc
{

namespace
{

constexpr std::size_t kTraceMaxCategories = 256;
constexpr std::uint64_t kMinRingRecords = 16;
constexpr std::uint64_t kMaxRingRecords = 1u << 20;

/** Round up to a power of two within [kMin, kMax]. */
std::uint64_t
roundCapacity(std::uint64_t requested)
{
    std::uint64_t cap = kMinRingRecords;
    while (cap < requested && cap < kMaxRingRecords)
        cap <<= 1;
    return cap;
}

/** One ring slot: seqlock stamp + three packed payload words. */
struct Slot
{
    /** 0 = never written; 2*seq+1 = writer mid-copy; 2*seq+2 = valid. */
    std::atomic<std::uint64_t> stamp{0};
    std::atomic<std::uint64_t> tsNs{0};
    std::atomic<std::uint64_t> arg{0};
    /** category | name<<16 | kind<<32 | hasArg<<40. */
    std::atomic<std::uint64_t> meta{0};
};

std::uint64_t
packMeta(std::uint16_t category, std::uint16_t name, TraceEventKind kind,
         bool hasArg)
{
    return static_cast<std::uint64_t>(category) |
           (static_cast<std::uint64_t>(name) << 16) |
           (static_cast<std::uint64_t>(kind) << 32) |
           (static_cast<std::uint64_t>(hasArg ? 1 : 0) << 40);
}

void
unpackMeta(std::uint64_t meta, TraceRecord &rec)
{
    rec.category = static_cast<std::uint16_t>(meta & 0xffff);
    rec.name = static_cast<std::uint16_t>((meta >> 16) & 0xffff);
    rec.kind = static_cast<TraceEventKind>((meta >> 32) & 0xff);
    rec.hasArg = ((meta >> 40) & 1) != 0;
}

} // namespace

/**
 * Fixed-capacity single-writer ring. The owning thread writes through
 * its thread_local handle; the exporter snapshots from any thread.
 */
class TraceRing
{
  public:
    TraceRing(std::uint64_t capacity, unsigned tid)
        : slots_(new Slot[capacity]), mask_(capacity - 1), tid_(tid)
    {}

    unsigned tid() const { return tid_; }

    void
    setName(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(nameMutex_);
        name_ = name;
    }

    std::string
    name() const
    {
        std::lock_guard<std::mutex> lock(nameMutex_);
        return name_;
    }

    /** Writer thread only. */
    void
    write(std::uint64_t tsNs, std::uint64_t arg, std::uint64_t meta)
    {
        Slot &slot = slots_[next_ & mask_];
        const std::uint64_t seq = next_++;
        slot.stamp.store(2 * seq + 1, std::memory_order_relaxed);
        slot.tsNs.store(tsNs, std::memory_order_release);
        slot.arg.store(arg, std::memory_order_release);
        slot.meta.store(meta, std::memory_order_release);
        slot.stamp.store(2 * seq + 2, std::memory_order_release);
    }

    /** Any thread; skips torn / mid-overwrite slots. */
    std::vector<TraceRecord>
    snapshot() const
    {
        std::vector<TraceRecord> out;
        out.reserve(mask_ + 1);
        for (std::uint64_t i = 0; i <= mask_; ++i) {
            const Slot &slot = slots_[i];
            const std::uint64_t st1 =
                slot.stamp.load(std::memory_order_acquire);
            if (st1 == 0 || (st1 & 1))
                continue;
            TraceRecord rec;
            rec.tsNs = slot.tsNs.load(std::memory_order_acquire);
            rec.arg = slot.arg.load(std::memory_order_acquire);
            const std::uint64_t meta =
                slot.meta.load(std::memory_order_acquire);
            const std::uint64_t st2 =
                slot.stamp.load(std::memory_order_relaxed);
            if (st1 != st2)
                continue;
            rec.seq = st1 / 2 - 1;
            unpackMeta(meta, rec);
            out.push_back(rec);
        }
        std::sort(out.begin(), out.end(),
                  [](const TraceRecord &a, const TraceRecord &b) {
                      return a.seq < b.seq;
                  });
        return out;
    }

  private:
    std::unique_ptr<Slot[]> slots_;
    std::uint64_t mask_;
    std::uint64_t next_ = 0; ///< writer-local record count
    unsigned tid_;
    mutable std::mutex nameMutex_;
    std::string name_;
};

/** Process-wide sink state: ring registry, interning, configuration. */
class TraceSink
{
  public:
    static TraceSink &
    instance()
    {
        static TraceSink sink;
        return sink;
    }

    TraceCategory &
    category(const char *name)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = categoryIndex_.find(name);
        if (it != categoryIndex_.end())
            return *it->second;
        if (categories_.size() >= kTraceMaxCategories)
            return *categories_.front(); // the shared "overflow" one
        categories_.push_back(std::unique_ptr<TraceCategory>(
            new TraceCategory(name,
                static_cast<std::uint16_t>(categories_.size()))));
        TraceCategory &cat = *categories_.back();
        categoryIndex_.emplace(cat.name(), &cat);
        cat.enabled_.store(channelOnLocked(cat.name()),
                           std::memory_order_relaxed);
        return cat;
    }

    std::uint16_t
    nameId(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = nameIndex_.find(name);
        if (it != nameIndex_.end())
            return it->second;
        if (names_.size() >= kTraceMaxNames)
            return 0; // "<overflow>"
        const std::uint16_t id = static_cast<std::uint16_t>(names_.size());
        names_.push_back(name);
        nameIndex_.emplace(name, id);
        return id;
    }

    void
    configure(const TraceOptions &options)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        options_ = options;
        options_.bufferRecords = roundCapacity(options.bufferRecords);
        if (options_.outPath.empty())
            options_.outPath = "trace.json";
        parseChannelsLocked(options_.channels);
        captureActive_.store(options_.enabled(),
                             std::memory_order_relaxed);
        for (auto &cat : categories_) {
            cat->enabled_.store(channelOnLocked(cat->name()),
                                std::memory_order_relaxed);
        }
        if (options_.bufferRecords != activeCapacity_) {
            activeCapacity_ = options_.bufferRecords;
            // Retire existing rings: threads re-register on their
            // next event and the old rings stay exportable.
            generation_.fetch_add(1, std::memory_order_relaxed);
        }
        if (options_.enabled() && !atexitArmed_) {
            atexitArmed_ = true;
            std::atexit(+[] { traceFlush(); });
        }
    }

    bool
    captureActive() const
    {
        return captureActive_.load(std::memory_order_relaxed);
    }

    TraceOptions
    currentOptions()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return options_;
    }

    std::uint64_t
    generation() const
    {
        return generation_.load(std::memory_order_relaxed);
    }

    /** Register (or re-register) the calling thread's ring. */
    std::shared_ptr<TraceRing>
    registerThread(const std::string &pendingName)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto ring = std::make_shared<TraceRing>(
            activeCapacity_, nextTid_++);
        if (!pendingName.empty())
            ring->setName(pendingName);
        rings_.push_back(ring);
        return ring;
    }

    std::vector<std::shared_ptr<TraceRing>>
    rings()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return rings_;
    }

    void
    reset()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        rings_.clear();
        nextTid_ = 1;
        generation_.fetch_add(1, std::memory_order_relaxed);
    }

    std::string
    nameText(std::uint16_t id)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return id < names_.size() ? names_[id] : "<overflow>";
    }

    std::string
    categoryText(std::uint16_t id)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return id < categories_.size() ? categories_[id]->name()
                                       : "overflow";
    }

  private:
    TraceSink()
    {
        names_.push_back("<overflow>");
        nameIndex_.emplace("<overflow>", 0);
        categories_.push_back(std::unique_ptr<TraceCategory>(
            new TraceCategory("overflow", 0)));
        categoryIndex_.emplace("overflow", categories_.front().get());
    }

    void
    parseChannelsLocked(const std::string &spec)
    {
        allChannels_ = false;
        channelSet_.clear();
        std::size_t start = 0;
        while (start <= spec.size()) {
            std::size_t comma = spec.find(',', start);
            if (comma == std::string::npos)
                comma = spec.size();
            std::string name = spec.substr(start, comma - start);
            if (name == "all")
                allChannels_ = true;
            else if (!name.empty())
                channelSet_.push_back(std::move(name));
            start = comma + 1;
        }
    }

    bool
    channelOnLocked(const std::string &name) const
    {
        if (!captureActive_.load(std::memory_order_relaxed))
            return false;
        if (allChannels_)
            return true;
        for (const std::string &channel : channelSet_) {
            if (channel == name)
                return true;
        }
        return false;
    }

    std::mutex mutex_;
    std::deque<std::unique_ptr<TraceCategory>> categories_;
    std::unordered_map<std::string, TraceCategory *> categoryIndex_;
    std::vector<std::string> names_;
    std::unordered_map<std::string, std::uint16_t> nameIndex_;
    std::vector<std::shared_ptr<TraceRing>> rings_;
    unsigned nextTid_ = 1;
    std::uint64_t activeCapacity_ = roundCapacity(65536);
    TraceOptions options_;
    bool allChannels_ = false;
    std::vector<std::string> channelSet_;
    bool atexitArmed_ = false;
    std::atomic<bool> captureActive_{false};
    std::atomic<std::uint64_t> generation_{0};
};

namespace
{

/** Per-thread ring handle; re-registers after a generation bump. */
struct ThreadHandle
{
    std::shared_ptr<TraceRing> ring;
    std::uint64_t generation = 0;
    std::string pendingName;
};

ThreadHandle &
threadHandle()
{
    thread_local ThreadHandle handle;
    return handle;
}

TraceRing *
currentRing()
{
    TraceSink &sink = TraceSink::instance();
    ThreadHandle &handle = threadHandle();
    const std::uint64_t gen = sink.generation();
    if (!handle.ring || handle.generation != gen) {
        handle.ring = sink.registerThread(handle.pendingName);
        handle.generation = gen;
    }
    return handle.ring.get();
}

void
emitRecord(TraceCategory &cat, std::uint16_t name, TraceEventKind kind,
           std::uint64_t tsNs, std::uint64_t arg, bool hasArg)
{
    currentRing()->write(tsNs, arg,
                         packMeta(cat.id(), name, kind, hasArg));
}

/** Microseconds with ns precision ("12.345"). */
void
appendMicros(std::string &out, std::uint64_t ns)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%llu.%03u",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned>(ns % 1000));
    out += buf;
}

} // namespace

TraceSpan::~TraceSpan()
{
    // No on() re-check: the span latched the category at construction,
    // so a mid-span reconfigure cannot silently drop the record.
    if (!cat_)
        return;
    const std::uint64_t end = traceNowNs();
    emitRecord(*cat_, name_, TraceEventKind::Complete, startNs_,
               end - startNs_, true);
}

TraceCategory &
traceCategory(const char *name)
{
    return TraceSink::instance().category(name);
}

std::uint16_t
traceNameId(const std::string &name)
{
    return TraceSink::instance().nameId(name);
}

void
traceConfigure(const TraceOptions &options)
{
    TraceSink::instance().configure(options);
}

std::uint64_t
traceNowNs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch).count());
}

void
traceSetThreadName(const std::string &name)
{
    ThreadHandle &handle = threadHandle();
    handle.pendingName = name;
    if (handle.ring)
        handle.ring->setName(name);
}

void
traceInstant(TraceCategory &cat, std::uint16_t name)
{
    if (!cat.on())
        return;
    emitRecord(cat, name, TraceEventKind::Instant, traceNowNs(), 0,
               false);
}

void
traceInstantArg(TraceCategory &cat, std::uint16_t name,
                std::uint64_t arg)
{
    if (!cat.on())
        return;
    emitRecord(cat, name, TraceEventKind::Instant, traceNowNs(), arg,
               true);
}

void
traceCounter(TraceCategory &cat, std::uint16_t name,
             std::uint64_t value)
{
    if (!cat.on())
        return;
    emitRecord(cat, name, TraceEventKind::Counter, traceNowNs(), value,
               true);
}

bool
traceExportChrome(const std::string &path, std::string &err)
{
    TraceSink &sink = TraceSink::instance();
    const auto rings = sink.rings();
    const int pid = static_cast<int>(getpid());

    struct Tagged
    {
        unsigned tid;
        TraceRecord rec;
    };
    std::vector<Tagged> events;
    // Records a ring overwrote (or that were torn mid-copy) are lost
    // to the export: everything published up to the highest sequence
    // number still held, minus what is held.
    std::vector<std::uint64_t> lost(rings.size(), 0);
    std::uint64_t totalLost = 0;
    for (std::size_t r = 0; r < rings.size(); ++r) {
        const std::vector<TraceRecord> snap = rings[r]->snapshot();
        if (!snap.empty()) {
            lost[r] = snap.back().seq + 1 - snap.size();
            totalLost += lost[r];
        }
        for (const TraceRecord &rec : snap)
            events.push_back(Tagged{rings[r]->tid(), rec});
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Tagged &a, const Tagged &b) {
                         if (a.rec.tsNs != b.rec.tsNs)
                             return a.rec.tsNs < b.rec.tsNs;
                         if (a.tid != b.tid)
                             return a.tid < b.tid;
                         return a.rec.seq < b.rec.seq;
                     });

    std::string out;
    out.reserve(events.size() * 120 + 4096);
    out += "{\"traceEvents\":[\n";
    bool first = true;
    auto comma = [&] {
        if (!first)
            out += ",\n";
        first = false;
    };

    char buf[64];
    std::snprintf(buf, sizeof(buf), "%d", pid);
    const std::string pidText = buf;

    comma();
    out += "{\"ph\":\"M\",\"ts\":0,\"pid\":" + pidText +
           ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
           "\"dmdc\"}}";
    for (std::size_t r = 0; r < rings.size(); ++r) {
        const std::string tidText = std::to_string(rings[r]->tid());
        const std::string name = rings[r]->name();
        if (!name.empty()) {
            comma();
            out += "{\"ph\":\"M\",\"ts\":0,\"pid\":" + pidText +
                   ",\"tid\":" + tidText +
                   ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
                   jsonEscapeString(name) + "\"}}";
        }
        comma();
        out += "{\"ph\":\"M\",\"ts\":0,\"pid\":" + pidText +
               ",\"tid\":" + tidText +
               ",\"name\":\"trace_records_lost\",\"args\":{\"lost\":" +
               std::to_string(lost[r]) + "}}";
    }

    for (const Tagged &event : events) {
        const TraceRecord &rec = event.rec;
        comma();
        out += "{\"ph\":\"";
        out.push_back(static_cast<char>(rec.kind));
        out += "\",\"ts\":";
        appendMicros(out, rec.tsNs);
        out += ",\"pid\":" + pidText +
               ",\"tid\":" + std::to_string(event.tid) + ",\"cat\":\"" +
               jsonEscapeString(sink.categoryText(rec.category)) +
               "\",\"name\":\"" + jsonEscapeString(sink.nameText(rec.name)) +
               '"';
        switch (rec.kind) {
          case TraceEventKind::Complete:
            out += ",\"dur\":";
            appendMicros(out, rec.arg);
            break;
          case TraceEventKind::Instant:
            out += ",\"s\":\"t\"";
            if (rec.hasArg)
                out += ",\"args\":{\"v\":" + std::to_string(rec.arg) +
                       "}";
            break;
          case TraceEventKind::Counter:
            out += ",\"args\":{\"v\":" + std::to_string(rec.arg) + "}";
            break;
        }
        out += "}";
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";

    if (!writeFileAtomic(path, out)) {
        err = "cannot write " + path;
        return false;
    }
    static std::atomic<bool> warned{false};
    if (totalLost > 0 && !warned.exchange(true)) {
        warn("trace: ring wraparound lost %llu records (see the "
             "trace_records_lost metadata in %s); raise --trace-buffer "
             "to keep them",
             static_cast<unsigned long long>(totalLost), path.c_str());
    }
    return true;
}

void
traceFlush()
{
    TraceSink &sink = TraceSink::instance();
    if (!sink.captureActive())
        return;
    const TraceOptions options = sink.currentOptions();
    std::string err;
    if (!traceExportChrome(options.outPath, err))
        warn("trace: export to %s failed: %s", options.outPath.c_str(),
             err.c_str());
}

void
traceReset()
{
    TraceSink::instance().reset();
}

} // namespace dmdc
