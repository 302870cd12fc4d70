/**
 * @file
 * Trace-sink unit tests: ring wraparound/overwrite ordering, name
 * interning limits, concurrent writer/snapshot safety (the TSan job
 * builds this binary), Chrome exporter round-trip through the strict
 * JSON parser, and channel reconfiguration. Every record count is
 * read from the exported Chrome file, the one place records go.
 *
 * Ordering matters inside this file: gtest runs tests in definition
 * order, and the interning-limit test deliberately exhausts the
 * process-wide name table (interned ids live for the process
 * lifetime), so it must stay last.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/trace_sink.hh"

using namespace dmdc;

namespace
{

TraceOptions
enabledOptions(const std::string &channels, std::uint64_t records)
{
    TraceOptions opt;
    opt.channels = channels;
    opt.outPath = "trace_sink_test_unused.json";
    opt.bufferRecords = records;
    return opt;
}

/** Export to a temp file, strict-parse it, and delete the file. */
JsonValue
exportAndParse()
{
    const std::string path = "trace_sink_test_export.json";
    std::string err;
    EXPECT_TRUE(traceExportChrome(path, err)) << err;
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good());
    std::ostringstream os;
    os << is.rdbuf();
    std::remove(path.c_str());
    JsonValue doc;
    EXPECT_TRUE(parseJson(os.str(), doc, err)) << err;
    return doc;
}

/** All exported events whose "name" equals @p name. */
std::vector<const JsonValue *>
eventsNamed(const JsonValue &doc, const std::string &name)
{
    std::vector<const JsonValue *> out;
    const JsonValue *list = doc.find("traceEvents");
    if (!list)
        return out;
    for (const JsonValue &e : list->items) {
        const JsonValue *n = e.find("name");
        if (n && n->text == name)
            out.push_back(&e);
    }
    return out;
}

/** Exported events that are records, not "ph":"M" metadata. */
std::size_t
recordCount(const JsonValue &doc)
{
    std::size_t n = 0;
    if (const JsonValue *list = doc.find("traceEvents")) {
        for (const JsonValue &e : list->items)
            n += e.find("ph")->text != "M";
    }
    return n;
}

std::uint64_t
argValue(const JsonValue &event)
{
    const JsonValue *args = event.find("args");
    if (!args)
        return 0;
    const JsonValue *v = args->find("v");
    return v ? std::stoull(v->text) : 0;
}

} // namespace

TEST(TraceSink, DisabledCategoryRecordsNothing)
{
    traceReset();
    traceConfigure(enabledOptions("somethingelse", 1024));
    TraceCategory &cat = traceCategory("ts-disabled");
    ASSERT_FALSE(cat.on());
    const std::uint16_t name = traceNameId("ts-disabled-evt");
    traceInstant(cat, name);
    traceInstantArg(cat, name, 7);
    traceCounter(cat, name, 9);
    { TraceSpan span(cat, name); }
    // Not even a ring: a disabled event never registers its thread,
    // so the export holds only the process_name metadata.
    const JsonValue doc = exportAndParse();
    EXPECT_EQ(recordCount(doc), 0u);
    EXPECT_TRUE(eventsNamed(doc, "trace_records_lost").empty());
}

TEST(TraceSink, WraparoundKeepsNewestInOrder)
{
    traceReset();
    traceConfigure(enabledOptions("ts-wrap", 16));
    TraceCategory &cat = traceCategory("ts-wrap");
    ASSERT_TRUE(cat.on());
    const std::uint16_t name = traceNameId("ts-wrap-evt");
    const std::uint64_t total = 100;
    for (std::uint64_t i = 0; i < total; ++i)
        traceInstantArg(cat, name, i);

    const JsonValue doc = exportAndParse();
    const auto events = eventsNamed(doc, "ts-wrap-evt");
    // Overwrite-oldest: exactly one ring's worth survives, and it is
    // the newest contiguous suffix in publication order.
    ASSERT_EQ(events.size(), 16u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(argValue(*events[i]), total - 16 + i);

    // The overwritten records are reported, not silently dropped: the
    // one ring's metadata counts every record it no longer holds.
    const auto lost = eventsNamed(doc, "trace_records_lost");
    ASSERT_EQ(lost.size(), 1u);
    EXPECT_EQ(lost[0]->find("ph")->text, "M");
    EXPECT_EQ(lost[0]->find("tid")->text, events[0]->find("tid")->text);
    const JsonValue *args = lost[0]->find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_NE(args->find("lost"), nullptr);
    EXPECT_EQ(args->find("lost")->text, std::to_string(total - 16));
}

TEST(TraceSink, ExporterRoundTrip)
{
    traceReset();
    traceConfigure(enabledOptions("ts-export", 1024));
    traceSetThreadName("ts-export-main");
    TraceCategory &cat = traceCategory("ts-export");
    ASSERT_TRUE(cat.on());

    { TraceSpan span(cat, traceNameId("ts-export-span")); }
    traceInstantArg(cat, traceNameId("ts-export-inst"), 42);
    traceCounter(cat, traceNameId("ts-export-ctr"), 17);

    const JsonValue doc = exportAndParse();
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    const JsonValue *unit = doc.find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->text, "ms");
    const JsonValue *list = doc.find("traceEvents");
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->kind, JsonValue::Kind::Array);

    // Every event carries the Chrome trace-event envelope, with this
    // process's pid.
    const std::string pid = std::to_string(getpid());
    for (const JsonValue &e : list->items) {
        ASSERT_EQ(e.kind, JsonValue::Kind::Object);
        const JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        EXPECT_EQ(ph->kind, JsonValue::Kind::String);
        const JsonValue *ts = e.find("ts");
        ASSERT_NE(ts, nullptr);
        EXPECT_EQ(ts->kind, JsonValue::Kind::Number);
        const JsonValue *p = e.find("pid");
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->text, pid);
        ASSERT_NE(e.find("tid"), nullptr);
        ASSERT_NE(e.find("name"), nullptr);
    }

    const auto spans = eventsNamed(doc, "ts-export-span");
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0]->find("ph")->text, "X");
    ASSERT_NE(spans[0]->find("dur"), nullptr);
    EXPECT_EQ(spans[0]->find("dur")->kind, JsonValue::Kind::Number);
    EXPECT_EQ(spans[0]->find("cat")->text, "ts-export");

    const auto insts = eventsNamed(doc, "ts-export-inst");
    ASSERT_EQ(insts.size(), 1u);
    EXPECT_EQ(insts[0]->find("ph")->text, "i");
    EXPECT_EQ(insts[0]->find("s")->text, "t");
    EXPECT_EQ(argValue(*insts[0]), 42u);

    const auto ctrs = eventsNamed(doc, "ts-export-ctr");
    ASSERT_EQ(ctrs.size(), 1u);
    EXPECT_EQ(ctrs[0]->find("ph")->text, "C");
    EXPECT_EQ(argValue(*ctrs[0]), 17u);

    // The named thread shows up as Chrome thread_name metadata.
    bool named = false;
    for (const JsonValue *m : eventsNamed(doc, "thread_name")) {
        const JsonValue *args = m->find("args");
        if (args && args->find("name") &&
            args->find("name")->text == "ts-export-main")
            named = true;
    }
    EXPECT_TRUE(named);
}

TEST(TraceSink, SpanCapturesEnablementAtConstruction)
{
    traceReset();
    traceConfigure(enabledOptions("ts-span", 1024));
    TraceCategory &cat = traceCategory("ts-span");
    ASSERT_TRUE(cat.on());
    {
        TraceSpan span(cat, traceNameId("ts-span-evt"));
        // Disabling mid-span must not lose the record: the span
        // latched the category when it started.
        traceConfigure(enabledOptions("other", 1024));
        ASSERT_FALSE(cat.on());
    }
    const JsonValue doc = exportAndParse();
    EXPECT_EQ(recordCount(doc), 1u);
    const auto spans = eventsNamed(doc, "ts-span-evt");
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0]->find("ph")->text, "X");
}

TEST(TraceSink, ReconfigureFlipsCategories)
{
    traceReset();
    traceConfigure(enabledOptions("ts-recfg-a", 1024));
    TraceCategory &a = traceCategory("ts-recfg-a");
    TraceCategory &b = traceCategory("ts-recfg-b");
    EXPECT_TRUE(a.on());
    EXPECT_FALSE(b.on());

    traceConfigure(enabledOptions("ts-recfg-b", 1024));
    EXPECT_FALSE(a.on());
    EXPECT_TRUE(b.on());

    traceConfigure(enabledOptions("all", 1024));
    EXPECT_TRUE(a.on());
    EXPECT_TRUE(b.on());

    TraceOptions off;
    off.channels.clear();
    traceConfigure(off);
    EXPECT_FALSE(a.on());
    EXPECT_FALSE(b.on());
}

TEST(TraceSink, ConcurrentWritersAndSnapshots)
{
    traceReset();
    traceConfigure(enabledOptions("ts-stress", 256));
    TraceCategory &cat = traceCategory("ts-stress");
    ASSERT_TRUE(cat.on());
    const std::uint16_t name = traceNameId("ts-stress-evt");

    constexpr unsigned kWriters = 4;
    constexpr std::uint64_t kPerWriter = 20000;
    std::vector<std::thread> writers;
    for (unsigned w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            traceSetThreadName("stress-" + std::to_string(w));
            for (std::uint64_t i = 0; i < kPerWriter; ++i)
                traceInstantArg(cat, name, i);
        });
    }
    // Snapshot concurrently with the writers: torn slots must be
    // skipped, not raced (the TSan job runs this binary).
    for (int round = 0; round < 20; ++round) {
        const std::string path = "trace_sink_test_stress.json";
        std::string err;
        ASSERT_TRUE(traceExportChrome(path, err)) << err;
        std::remove(path.c_str());
    }
    for (std::thread &t : writers)
        t.join();

    // After the writers exited, their rings (and thread names) must
    // still be visible to the exporter.
    const JsonValue doc = exportAndParse();
    EXPECT_EQ(eventsNamed(doc, "ts-stress-evt").size(),
              kWriters * std::min<std::uint64_t>(kPerWriter, 256));
    std::vector<std::string> workerTids;
    for (const JsonValue *m : eventsNamed(doc, "thread_name")) {
        const JsonValue *args = m->find("args");
        if (args && args->find("name") &&
            args->find("name")->text.rfind("stress-", 0) == 0)
            workerTids.push_back(m->find("tid")->text);
    }
    ASSERT_EQ(workerTids.size(), kWriters);

    // Every published record is accounted for: per writer ring, the
    // records held plus the records its metadata reports lost.
    for (const std::string &tid : workerTids) {
        std::uint64_t held = 0;
        for (const JsonValue *e : eventsNamed(doc, "ts-stress-evt"))
            held += e->find("tid")->text == tid;
        std::uint64_t lost = 0;
        for (const JsonValue *m : eventsNamed(doc, "trace_records_lost")) {
            if (m->find("tid")->text == tid)
                lost = std::stoull(m->find("args")->find("lost")->text);
        }
        EXPECT_EQ(held + lost, kPerWriter) << "tid " << tid;
    }
}

// Keep last: exhausts the process-wide name table (ids are interned
// for the process lifetime, traceReset() does not return them).
TEST(TraceSink, NameInterningOverflowsToIdZero)
{
    traceReset();
    traceConfigure(enabledOptions("ts-intern", 1024));

    const std::uint16_t first = traceNameId("ts-intern-first");
    EXPECT_NE(first, 0);
    EXPECT_EQ(traceNameId("ts-intern-first"), first);

    // Fill the table; past the cap every new name maps to the shared
    // "<overflow>" id 0 instead of growing without bound.
    std::uint16_t last = first;
    for (std::size_t i = 0; i < kTraceMaxNames + 16; ++i)
        last = traceNameId("ts-intern-" + std::to_string(i));
    EXPECT_EQ(last, 0);
    EXPECT_EQ(traceNameId("ts-intern-overflowing-more"), 0);
    // Already-interned names keep their ids.
    EXPECT_EQ(traceNameId("ts-intern-first"), first);

    // Overflow records still export, under the "<overflow>" name.
    TraceCategory &cat = traceCategory("ts-intern");
    ASSERT_TRUE(cat.on());
    traceInstantArg(cat, 0, 5);
    const JsonValue doc = exportAndParse();
    EXPECT_EQ(eventsNamed(doc, "<overflow>").size(), 1u);

    // Leave tracing off so the at-exit flush stays a no-op.
    TraceOptions off;
    off.channels.clear();
    traceConfigure(off);
}
