/**
 * @file
 * trace_merge — combine per-process Chrome trace-event files.
 *
 * Usage:
 *   trace_merge [options] trace0.json trace1.json ...
 *     --out=<path>   write the merged trace to <path> (default stdout)
 *     --selftest     run the built-in validation suite and exit
 *
 * A multi-process campaign (several dmdc_sim or bench processes, each
 * with its own --trace-out) writes one trace file per process; this
 * tool concatenates their traceEvents arrays into one document
 * Perfetto can load whole. Each input is strictly validated — a JSON
 * object with a traceEvents array whose entries carry "ph", "ts",
 * "pid", "tid", and "name" — so a torn or truncated trace fails
 * loudly instead of silently dropping a process. Events keep their raw number tokens and source
 * order, so merging is byte-stable and per-process timestamps are
 * preserved exactly.
 *
 * Exit codes: 0 merged OK; 1 an input is not a valid trace document;
 * 2 usage or I/O error.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/cli_options.hh"

using namespace dmdc;

namespace
{

/** Re-serialize a parsed value compactly, preserving raw number
 *  tokens and object field order (the parser keeps both). */
void
writeJsonValue(std::string &out, const JsonValue &v)
{
    switch (v.kind) {
      case JsonValue::Kind::Null:
        out += "null";
        break;
      case JsonValue::Kind::Bool:
        out += v.boolean ? "true" : "false";
        break;
      case JsonValue::Kind::Number:
        out += v.text;
        break;
      case JsonValue::Kind::String:
        out += '"';
        out += jsonEscapeString(v.text);
        out += '"';
        break;
      case JsonValue::Kind::Array:
        out += '[';
        for (std::size_t i = 0; i < v.items.size(); ++i) {
            if (i)
                out += ',';
            writeJsonValue(out, v.items[i]);
        }
        out += ']';
        break;
      case JsonValue::Kind::Object:
        out += '{';
        for (std::size_t i = 0; i < v.fields.size(); ++i) {
            if (i)
                out += ',';
            out += '"';
            out += jsonEscapeString(v.fields[i].first);
            out += "\":";
            writeJsonValue(out, v.fields[i].second);
        }
        out += '}';
        break;
    }
}

bool
requireField(const JsonValue &event, const char *key,
             JsonValue::Kind kind, const std::string &where,
             std::string &err)
{
    const JsonValue *f = event.find(key);
    if (!f || f->kind != kind) {
        err = where + ": event missing required field \"" + key + "\"";
        return false;
    }
    return true;
}

/** Parse @p text as one Chrome trace document and append its events
 *  to @p events. @p where names the input in error messages. */
bool
collectTraceEvents(const std::string &text, const std::string &where,
                   std::vector<JsonValue> &events, std::string &err)
{
    JsonValue doc;
    if (!parseJson(text, doc, err)) {
        err = where + ": " + err;
        return false;
    }
    if (doc.kind != JsonValue::Kind::Object) {
        err = where + ": trace document is not a JSON object";
        return false;
    }
    const JsonValue *list = doc.find("traceEvents");
    if (!list || list->kind != JsonValue::Kind::Array) {
        err = where + ": no traceEvents array";
        return false;
    }
    for (const JsonValue &event : list->items) {
        if (event.kind != JsonValue::Kind::Object) {
            err = where + ": traceEvents entry is not an object";
            return false;
        }
        if (!requireField(event, "ph", JsonValue::Kind::String,
                          where, err) ||
            !requireField(event, "ts", JsonValue::Kind::Number,
                          where, err) ||
            !requireField(event, "pid", JsonValue::Kind::Number,
                          where, err) ||
            !requireField(event, "tid", JsonValue::Kind::Number,
                          where, err) ||
            !requireField(event, "name", JsonValue::Kind::String,
                          where, err))
            return false;
        events.push_back(event);
    }
    return true;
}

/** Merge validated trace texts into one document. Inputs keep their
 *  argument order: per-process timestamps already interleave in
 *  Perfetto's timeline view, so no cross-process sort is imposed. */
bool
mergeTraceTexts(const std::vector<std::string> &texts,
                const std::vector<std::string> &names,
                std::string &out, std::string &err)
{
    std::vector<JsonValue> events;
    for (std::size_t i = 0; i < texts.size(); ++i) {
        if (!collectTraceEvents(texts[i], names[i], events, err))
            return false;
    }
    out.clear();
    out.reserve(texts.size() * 64 + events.size() * 120);
    out += "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i)
            out += ",\n";
        writeJsonValue(out, events[i]);
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return true;
}

// ---- selftest --------------------------------------------------------

std::string
traceText(int pid, const std::string &extraEvents)
{
    std::ostringstream os;
    os << "{\"traceEvents\":[\n"
       << "{\"ph\":\"M\",\"ts\":0,\"pid\":" << pid
       << ",\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"dmdc\"}}"
       << extraEvents << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return os.str();
}

int
failSelftest(const char *what, const std::string &detail)
{
    std::fprintf(stderr, "trace_merge --selftest FAILED: %s%s%s\n",
                 what, detail.empty() ? "" : ": ", detail.c_str());
    return kExitFailure;
}

bool
mergeRejects(const std::vector<std::string> &texts)
{
    std::vector<std::string> names(texts.size(), "<fixture>");
    std::string out;
    std::string err;
    return !mergeTraceTexts(texts, names, out, err);
}

int
selftest()
{
    const std::string span =
        ",\n{\"ph\":\"X\",\"ts\":12.500,\"pid\":100,\"tid\":1,"
        "\"cat\":\"runner\",\"name\":\"campaign\",\"dur\":3.125}";
    const std::string instant =
        ",\n{\"ph\":\"i\",\"ts\":0.042,\"pid\":200,\"tid\":2,"
        "\"cat\":\"kernel\",\"name\":\"idle-skip\",\"s\":\"t\","
        "\"args\":{\"v\":7}}";
    const std::string a = traceText(100, span);
    const std::string b = traceText(200, instant);

    std::string merged;
    std::string err;
    if (!mergeTraceTexts({a, b}, {"a", "b"}, merged, err))
        return failSelftest("fixture traces must merge", err);

    // The merged document must itself parse as a valid trace with
    // every input event present, numbers byte-identical.
    std::vector<JsonValue> events;
    if (!collectTraceEvents(merged, "<merged>", events, err))
        return failSelftest("merged trace must re-validate", err);
    if (events.size() != 4)
        return failSelftest("merged trace must keep all events",
                            std::to_string(events.size()));
    if (merged.find("\"ts\":12.500") == std::string::npos ||
        merged.find("\"dur\":3.125") == std::string::npos)
        return failSelftest("number tokens must survive verbatim",
                            merged);

    // Merging the merge must be byte-stable.
    std::string again;
    if (!mergeTraceTexts({merged}, {"<merged>"}, again, err) ||
        again != merged)
        return failSelftest("re-merge must be byte-stable", err);

    // Rejections.
    if (!mergeRejects({a, "{\"traceEvents\":["}))
        return failSelftest("malformed JSON must be rejected", "");
    if (!mergeRejects({a, "{\"displayTimeUnit\":\"ms\"}"}))
        return failSelftest("missing traceEvents must be rejected", "");
    if (!mergeRejects({a, "{\"traceEvents\":{}}"}))
        return failSelftest("non-array traceEvents must be rejected",
                            "");
    if (!mergeRejects({a, "{\"traceEvents\":[42]}"}))
        return failSelftest("non-object event must be rejected", "");
    if (!mergeRejects(
            {a, "{\"traceEvents\":[{\"ts\":1,\"pid\":1,\"tid\":1,"
                "\"name\":\"x\"}]}"}))
        return failSelftest("event without ph must be rejected", "");
    if (!mergeRejects(
            {a, "{\"traceEvents\":[{\"ph\":\"i\",\"ts\":1,\"pid\":1,"
                "\"tid\":1,\"name\":7}]}"}))
        return failSelftest("wrong-typed name must be rejected", "");

    std::printf("trace_merge selftest: all checks passed\n");
    return kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    bool run_selftest = false;
    std::vector<std::string> paths;

    CliParser cli(argv[0],
                  "Combine per-process Chrome trace-event files into "
                  "one Perfetto-loadable document.");
    cli.value("out", &out_path, "merged trace path (default: stdout)");
    cli.flag("selftest", &run_selftest,
             "run the built-in validation suite and exit");
    cli.positional(&paths, "trace files");
    cli.parseOrExit(argc, argv);

    if (run_selftest)
        return selftest();
    if (paths.empty())
        cli.failUsage("no trace files given");

    std::vector<std::string> texts;
    texts.reserve(paths.size());
    for (const std::string &path : paths) {
        std::ifstream is(path, std::ios::binary);
        if (!is) {
            std::fprintf(stderr, "trace_merge: cannot read '%s'\n",
                         path.c_str());
            return kExitUsage;
        }
        std::ostringstream os;
        os << is.rdbuf();
        texts.push_back(os.str());
    }

    std::string merged;
    std::string err;
    if (!mergeTraceTexts(texts, paths, merged, err)) {
        std::fprintf(stderr, "trace_merge: %s\n", err.c_str());
        return kExitFailure;
    }

    if (out_path.empty()) {
        std::cout << merged;
    } else {
        std::ofstream os(out_path, std::ios::binary);
        if (!os) {
            std::fprintf(stderr, "trace_merge: cannot write '%s'\n",
                         out_path.c_str());
            return kExitUsage;
        }
        os << merged;
    }
    std::fprintf(stderr, "trace_merge: %zu traces -> %s\n",
                 texts.size(),
                 out_path.empty() ? "<stdout>" : out_path.c_str());
    return kExitOk;
}
