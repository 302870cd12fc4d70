/**
 * @file
 * Compares two bench journals (the JSON files the campaign engine
 * writes via --json=) and fails when the newer one regresses.
 *
 * Rows are matched by their "run" identity (runIdentity(): every
 * behaviour-affecting option), so the runs of a sweep that share a
 * (benchmark, scheme, config) triple stay apart. For each row on both
 * sides the report names every "result" field that differs, nested
 * energy fields included, and it names the rows present on one side
 * only. IPC is deterministic, so any drop beyond a small relative
 * threshold is a real simulator change; wall-clock is noisy, so the
 * default threshold is generous and we take the fastest non-cached
 * measurement per row (cached replays report 0 ms and are skipped).
 *
 * Journals from degraded campaigns are handled, not trusted: rows
 * whose status is not "ok" (the failure manifest) and rows without a
 * finite result IPC are reported and excluded from the comparison
 * instead of crashing it or silently passing. Two journals with no
 * comparable row in common are "incomparable".
 *
 * Exit codes: 0 no regressions, 1 regression found, 2 usage or
 * parse error, 3 incomparable (no overlapping comparable rows).
 * CI runs this as an advisory step (continue-on-error), so a red
 * result annotates the PR without blocking it.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace
{

using dmdc::JsonValue;

/** Numeric value of @p v; 0 when it is not a JSON number. */
double
number(const JsonValue &v)
{
    return v.kind == JsonValue::Kind::Number
        ? std::strtod(v.text.c_str(), nullptr) : 0.0;
}

// ---- journal model ---------------------------------------------------

struct Row
{
    JsonValue result;       ///< the row's "result" object
    double ipc = 0.0;
    double wallMs = -1.0;   ///< fastest non-cached run; <0 if none
    double instPerS = -1.0; ///< best non-cached inst/s; <0 if none
};

struct Journal
{
    std::string commit = "unknown";
    std::string generated = "unknown";
    std::map<std::string, Row> rows; ///< by "run"
    std::size_t notOk = 0;      ///< failure-manifest rows excluded
    std::size_t unusable = 0;   ///< rows without a finite IPC
};

bool
parseJournal(const std::string &text, Journal &out, std::string &err)
{
    JsonValue root;
    std::string perr;
    if (!dmdc::parseJson(text, root, perr)) {
        err = "malformed JSON: " + perr;
        return false;
    }
    if (root.kind != JsonValue::Kind::Object) {
        err = "malformed JSON: not an object";
        return false;
    }
    if (const JsonValue *v = root.find("commit"))
        out.commit = v->text;
    if (const JsonValue *v = root.find("generated_utc"))
        out.generated = v->text;
    const JsonValue *results = root.find("results");
    if (!results || results->kind != JsonValue::Kind::Array) {
        err = "no \"results\" array";
        return false;
    }
    for (const JsonValue &rec : results->items) {
        const JsonValue *run = rec.find("run");
        if (!run || run->kind != JsonValue::Kind::String) {
            err = "result row missing its \"run\" identity";
            return false;
        }
        // Failure-manifest rows (degraded campaigns) carry no
        // metrics; exclude them rather than comparing zeros.
        const JsonValue *status = rec.find("status");
        if (status && status->text != "ok") {
            ++out.notOk;
            continue;
        }
        const JsonValue *result = rec.find("result");
        const JsonValue *ipc = result ? result->find("ipc") : nullptr;
        if (!ipc || ipc->kind != JsonValue::Kind::Number ||
            !std::isfinite(number(*ipc))) {
            ++out.unusable;
            continue;
        }
        Row &row = out.rows[run->text];
        row.result = *result;  // deterministic; any row will do
        row.ipc = number(*ipc);
        const JsonValue *cached = rec.find("cached");
        const JsonValue *wall = rec.find("wall_ms");
        const JsonValue *inst = rec.find("inst_per_s");
        if (cached && cached->boolean)
            continue;
        if (wall && (row.wallMs < 0.0 || number(*wall) < row.wallMs))
            row.wallMs = number(*wall);
        if (inst && number(*inst) > row.instPerS)
            row.instPerS = number(*inst);
    }
    return true;
}

bool
loadJournal(const char *path, Journal &out)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "bench_compare: cannot read '%s'\n",
                     path);
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string err;
    if (!parseJournal(buf.str(), out, err)) {
        std::fprintf(stderr, "bench_compare: '%s': %s\n", path,
                     err.c_str());
        return false;
    }
    return true;
}

// ---- comparison ------------------------------------------------------

/** A scalar field value as the report prints it. */
std::string
spell(const JsonValue &v)
{
    if (v.kind == JsonValue::Kind::Bool)
        return v.boolean ? "true" : "false";
    return v.text;
}

/**
 * Append one "name: base -> cur" line per field of two result objects
 * that differs. Numbers compare as their JSON tokens, which the
 * journal writer spells exactly, so equal values have equal tokens.
 * Nested objects (energy) recurse with a "parent." prefix.
 */
void
diffFields(const JsonValue &base, const JsonValue &cur,
           const std::string &prefix, std::vector<std::string> &out)
{
    for (const auto &[name, b] : base.fields) {
        const JsonValue *c = cur.find(name);
        if (!c) {
            out.push_back(prefix + name + ": only in baseline");
        } else if (b.kind == JsonValue::Kind::Object &&
                   c->kind == JsonValue::Kind::Object) {
            diffFields(b, *c, prefix + name + ".", out);
        } else if (b.kind != c->kind || spell(b) != spell(*c)) {
            out.push_back(prefix + name + ": " + spell(b) + " -> " +
                          spell(*c));
        }
    }
    for (const auto &[name, c] : cur.fields) {
        (void)c;
        if (!base.find(name))
            out.push_back(prefix + name + ": only in current");
    }
}

struct CompareOptions
{
    double maxIpcDrop = 0.02;       ///< relative, e.g. 0.02 = -2%
    double maxWallIncrease = 0.50;  ///< relative, e.g. 0.50 = +50%
    /**
     * Advisory inst/s drop threshold (relative, e.g. 0.25 = -25%).
     * Throughput deltas are always reported; when this is set, drops
     * beyond it are flagged in the output — but they never change the
     * exit code (inst/s is machine- and load-dependent).
     */
    double perfThreshold = -1.0;    ///< disabled when < 0
};

/** A relative change as "%+8.1f%%", or "-" without both values. */
std::string
deltaText(double base, double cur)
{
    char text[32];
    if (base > 0.0 && cur > 0.0)
        std::snprintf(text, sizeof(text), "%+8.1f%%",
                      100.0 * (cur - base) / base);
    else
        std::snprintf(text, sizeof(text), "%9s", "-");
    return text;
}

/**
 * Returns the number of regressions (0 = clean); @p compared reports
 * how many rows both journals could actually be diffed on, and
 * @p changed how many of those differ in some result field.
 */
int
compareJournals(const Journal &base, const Journal &cur,
                const CompareOptions &opt, std::size_t &compared,
                std::size_t &changed)
{
    int regressions = 0;
    compared = 0;
    changed = 0;
    std::printf("baseline: commit %s (%s)\n", base.commit.c_str(),
                base.generated.c_str());
    std::printf("current:  commit %s (%s)\n", cur.commit.c_str(),
                cur.generated.c_str());
    if (base.notOk + base.unusable + cur.notOk + cur.unusable) {
        std::printf("excluded rows: baseline %zu failed + %zu "
                    "without metrics, current %zu failed + %zu "
                    "without metrics\n",
                    base.notOk, base.unusable, cur.notOk,
                    cur.unusable);
    }
    std::size_t perf_flags = 0;
    std::printf("\n%10s %10s %9s %9s %9s  %s\n", "base ipc", "cur ipc",
                "d(ipc)", "d(wall)", "d(inst/s)", "run");
    for (const auto &[run, b] : base.rows) {
        auto it = cur.rows.find(run);
        if (it == cur.rows.end()) {
            std::printf("only in baseline: %s\n", run.c_str());
            continue;
        }
        const Row &c = it->second;
        ++compared;
        const double ipc_delta =
            b.ipc > 0.0 ? (c.ipc - b.ipc) / b.ipc : 0.0;
        const bool ipc_bad = ipc_delta < -opt.maxIpcDrop;
        const bool wall_bad = b.wallMs > 0.0 && c.wallMs > 0.0 &&
            (c.wallMs - b.wallMs) / b.wallMs > opt.maxWallIncrease;
        if (ipc_bad || wall_bad)
            ++regressions;
        // Advisory only: throughput is machine-dependent, so a flag
        // here annotates the report without failing the comparison.
        const bool inst_slow = opt.perfThreshold >= 0.0 &&
            b.instPerS > 0.0 && c.instPerS > 0.0 &&
            (c.instPerS - b.instPerS) / b.instPerS < -opt.perfThreshold;
        if (inst_slow)
            ++perf_flags;

        std::printf("%10.4f %10.4f %+8.2f%% %s %s  %s%s\n", b.ipc, c.ipc,
                    100.0 * ipc_delta,
                    deltaText(b.wallMs, c.wallMs).c_str(),
                    deltaText(b.instPerS, c.instPerS).c_str(),
                    run.c_str(),
                    ipc_bad ? "  << IPC REGRESSION"
                            : (wall_bad ? "  << WALL REGRESSION"
                               : (inst_slow ? "  << slow (advisory)"
                                            : "")));
        std::vector<std::string> diffs;
        diffFields(b.result, c.result, "", diffs);
        changed += !diffs.empty();
        for (const std::string &d : diffs)
            std::printf("    %s\n", d.c_str());
    }
    for (const auto &[run, c] : cur.rows) {
        (void)c;
        if (!base.rows.count(run))
            std::printf("only in current: %s\n", run.c_str());
    }
    if (!compared)
        std::printf("\nincomparable: the journals share no "
                    "comparable row\n");
    else if (regressions)
        std::printf("\n%d regression(s) beyond thresholds "
                    "(ipc drop > %.1f%%, wall increase > %.1f%%)\n",
                    regressions, 100.0 * opt.maxIpcDrop,
                    100.0 * opt.maxWallIncrease);
    else
        std::printf("\nno regressions beyond thresholds "
                    "(%zu row(s) compared)\n", compared);
    if (changed)
        std::printf("%zu compared row(s) differ in result fields\n",
                    changed);
    if (perf_flags)
        std::printf("advisory: %zu row(s) lost more than %.1f%% "
                    "inst/s (does not affect the exit code)\n",
                    perf_flags, 100.0 * opt.perfThreshold);
    return regressions;
}

// ---- self test -------------------------------------------------------

/** One journal row: an ok row when @p result is set, else failed. */
std::string
row(const std::string &run, const std::string &result,
    const std::string &extra = "")
{
    return "{\"run\":\"" + run + "\",\"status\":" +
           (result.empty() ? "\"failed\",\"error\":\"x\""
                           : "\"ok\",\"result\":" + result) +
           extra + "}";
}

std::string
journalText(const std::string &commit, const std::vector<std::string> &rows)
{
    std::string text = "{\"commit\":\"" + commit + "\",\"results\":[";
    for (std::size_t i = 0; i < rows.size(); ++i)
        text += (i ? "," : "") + rows[i];
    return text + "]}";
}

/**
 * Built-in check used by ctest: exercises the parser and the
 * regression verdicts without needing journal files on disk.
 */
int
selfTest()
{
    const std::string gzip_base = "bench=gzip|config=2|scheme=baseline";
    const std::string gzip_dmdc = "bench=gzip|config=2|scheme=dmdc-global";
    auto result = [](double ipc, int hash_x = 0) {
        std::ostringstream os;
        os << "{\"ipc\":" << ipc << ",\"cycles\":90253,\"false_hash_x\":"
           << hash_x << ",\"energy\":{\"lq_cam\":1.5}}";
        return os.str();
    };
    auto timing = [](double wall, double inst, bool cached) {
        std::ostringstream os;
        os << ",\"attempts\":" << !cached << ",\"wall_ms\":" << wall
           << ",\"inst_per_s\":" << inst
           << ",\"cached\":" << (cached ? "true" : "false");
        return os.str();
    };
    const std::string base_text = journalText("aaaa", {
        row(gzip_base, result(0.664), timing(120.0, 1.8e6, false)),
        row(gzip_dmdc, result(0.665), timing(0.0, 0.0, true))});
    auto variant = [&](double ipc, double wall, double inst = 1.8e6) {
        return journalText("bbbb", {
            row(gzip_base, result(ipc), timing(wall, inst, false)),
            row(gzip_dmdc, result(0.665), timing(0.0, 0.0, true))});
    };

    int failures = 0;
    auto expect = [&failures](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "selftest FAILED: %s\n", what);
            ++failures;
        }
    };

    Journal base;
    std::string err;
    expect(parseJournal(base_text, base, err), "parse baseline");
    expect(base.commit == "aaaa", "commit field");
    expect(base.rows.size() == 2, "two rows");
    expect(base.rows.count(gzip_base) == 1, "rows keyed on run");
    // A cached row must not contribute a wall-clock measurement.
    expect(base.rows[gzip_dmdc].wallMs < 0.0, "cached wall skipped");
    expect(base.rows[gzip_base].instPerS == 1.8e6, "inst_per_s read");
    expect(base.rows[gzip_dmdc].instPerS < 0.0,
           "cached zero inst_per_s skipped");

    const CompareOptions opt;
    std::size_t compared = 0;
    std::size_t changed = 0;
    Journal same, slow, worse;
    expect(parseJournal(variant(0.664, 121.0), same, err),
           "parse identical");
    expect(parseJournal(variant(0.664, 400.0), slow, err),
           "parse slow");
    expect(parseJournal(variant(0.600, 121.0), worse, err),
           "parse worse");
    expect(compareJournals(base, same, opt, compared, changed) == 0,
           "identical journals are clean");
    expect(compared == 2, "both rows compared");
    expect(changed == 0, "identical results have no field diffs");
    expect(compareJournals(base, slow, opt, compared, changed) == 1,
           "wall-clock blowup is a regression");
    expect(compareJournals(base, worse, opt, compared, changed) == 1,
           "ipc drop is a regression");
    expect(changed == 1, "the ipc change is a field diff");

    // A drop in inst/s past --perf-threshold is advisory: flagged in
    // the report, never counted as a regression.
    CompareOptions perf_opt;
    perf_opt.maxWallIncrease = 100.0;   // isolate the advisory path
    perf_opt.perfThreshold = 0.25;
    Journal crawl;
    expect(parseJournal(variant(0.664, 121.0, 1.0e5), crawl, err),
           "parse slow-inst/s journal");
    expect(compareJournals(base, crawl, perf_opt, compared,
                           changed) == 0,
           "inst/s drop past --perf-threshold stays advisory");

    // A moved replay class is named, nested energy fields count, and
    // neither is a regression by itself.
    std::vector<std::string> diffs;
    JsonValue a, b;
    expect(dmdc::parseJson(result(0.664, 3), a, err) &&
               dmdc::parseJson("{\"ipc\":0.664,\"cycles\":90253,"
                               "\"false_hash_x\":4,\"energy\":"
                               "{\"lq_cam\":2.5}}", b, err),
           "parse result objects");
    diffFields(a, b, "", diffs);
    expect(diffs == std::vector<std::string>{
                        "false_hash_x: 3 -> 4",
                        "energy.lq_cam: 1.5 -> 2.5"},
           "differing result fields are named");

    Journal bad;
    expect(!parseJournal("{\"results\":42}", bad, err),
           "reject non-array results");
    expect(!parseJournal("not json", bad, err), "reject non-json");
    expect(!parseJournal(journalText("x", {"{\"status\":\"ok\"}"}), bad,
                         err),
           "reject a row without a run identity");

    // Failure-manifest rows and metric-free rows are excluded, never
    // compared as zeros.
    const std::string degraded_text = journalText("cccc", {
        row(gzip_base, "", timing(1.0, 0.0, false)),
        row(gzip_dmdc, result(0.665), timing(50.0, 2.0e6, false)),
        row("bench=vpr|config=2|scheme=yla", "{\"ipc\":nan}")});
    Journal degraded;
    expect(parseJournal(degraded_text, degraded, err),
           "parse degraded journal");
    expect(degraded.rows.size() == 1, "only ok rows kept");
    expect(degraded.notOk == 1, "failed row counted");
    expect(degraded.unusable == 1, "nan ipc counted");
    expect(compareJournals(base, degraded, opt, compared, changed) == 0,
           "degraded journal compares clean on the overlap");
    expect(compared == 1, "overlap is the single surviving row");

    // Disjoint run sets are incomparable, not silently passing.
    Journal disjoint;
    expect(parseJournal(journalText("dddd", {
                            row("bench=mcf|config=1|scheme=baseline",
                                result(0.3))}),
                        disjoint, err),
           "parse disjoint journal");
    expect(compareJournals(base, disjoint, opt, compared, changed) == 0,
           "disjoint journals report no regressions");
    expect(compared == 0, "disjoint journals are incomparable");

    std::printf("selftest: %s\n", failures ? "FAILED" : "ok");
    return failures ? 1 : 0;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <baseline.json> <current.json>\n"
        "         [--max-ipc-drop=FRAC]       default 0.02\n"
        "         [--max-wall-increase=FRAC]  default 0.50\n"
        "         [--perf-threshold=FRAC]     advisory, off by default\n"
        "       %s --selftest\n"
        "\n"
        "Diffs two bench journals produced by --json=, row by run\n"
        "identity: names every result field that differs and every\n"
        "row present on one side only, and exits 1 when the current\n"
        "journal regresses IPC or wall clock beyond the thresholds.\n"
        "Throughput (inst/s) deltas are always reported;\n"
        "--perf-threshold flags drops beyond FRAC in the report\n"
        "without affecting the exit code. Failed rows and rows\n"
        "without a finite IPC are excluded; journals sharing no\n"
        "comparable row exit 3 (incomparable).\n",
        argv0, argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    CompareOptions opt;
    std::vector<const char *> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest")
            return selfTest();
        if (arg.rfind("--max-ipc-drop=", 0) == 0) {
            opt.maxIpcDrop = std::atof(arg.c_str() + 15);
        } else if (arg.rfind("--max-wall-increase=", 0) == 0) {
            opt.maxWallIncrease = std::atof(arg.c_str() + 20);
        } else if (arg.rfind("--perf-threshold=", 0) == 0) {
            opt.perfThreshold = std::atof(arg.c_str() + 17);
        } else if (arg.rfind("--", 0) == 0) {
            usage(argv[0]);
            return 2;
        } else {
            paths.push_back(argv[i]);
        }
    }
    if (paths.size() != 2) {
        usage(argv[0]);
        return 2;
    }

    Journal base, cur;
    if (!loadJournal(paths[0], base) || !loadJournal(paths[1], cur))
        return 2;
    std::size_t compared = 0;
    std::size_t changed = 0;
    const int regressions =
        compareJournals(base, cur, opt, compared, changed);
    if (regressions)
        return 1;
    return compared ? 0 : 3;
}
