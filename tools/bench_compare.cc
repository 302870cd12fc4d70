/**
 * @file
 * Compares two bench journals (the JSON files the campaign engine
 * writes via --json= / setCampaignJournal) and fails when the newer
 * one regresses.
 *
 * Records are matched by (benchmark, scheme, config). IPC is
 * deterministic, so any drop beyond a small relative threshold is a
 * real simulator change; wall-clock is noisy, so the default
 * threshold is generous and we take the fastest non-cached
 * measurement per key (cached replays report 0 ms and are skipped).
 *
 * Journals from degraded campaigns are handled, not trusted: records
 * whose status is not "ok" (the failure manifest), records missing an
 * IPC and records with non-finite IPC are reported and excluded from
 * the comparison instead of crashing it or silently passing. Two
 * journals with no comparable key in common are "incomparable".
 *
 * Exit codes: 0 no regressions, 1 regression found, 2 usage or
 * parse error, 3 incomparable (no overlapping comparable records).
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

struct BenchPoint
{
    double ipc = 0.0;
    double wallMs = -1.0;   ///< fastest non-cached run; <0 if none
    double simKhz = -1.0;   ///< best non-cached sim-kHz; <0 if none
};

struct Journal
{
    std::string commit = "unknown";
    std::string generated = "unknown";
    // key: "benchmark|scheme|config"
    std::map<std::string, BenchPoint> points;
    std::size_t notOk = 0;      ///< failure-manifest records excluded
    std::size_t unusable = 0;   ///< records without a finite IPC
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
        const JsonValue *bench = rec.find("benchmark");
        const JsonValue *scheme = rec.find("scheme");
        const JsonValue *config = rec.find("config");
        if (!bench || !scheme || !config) {
            err = "result record missing benchmark/scheme/config";
            return false;
        }
        // Failure-manifest records (degraded campaigns) carry no
        // metrics; exclude them rather than comparing zeros.
        const JsonValue *status = rec.find("status");
        if (status && status->text != "ok") {
            ++out.notOk;
            continue;
        }
        const JsonValue *ipc = rec.find("ipc");
        if (!ipc || ipc->kind != JsonValue::Kind::Number ||
            !std::isfinite(number(*ipc))) {
            ++out.unusable;
            continue;
        }
        std::ostringstream key;
        key << bench->text << '|' << scheme->text << '|'
            << static_cast<unsigned>(number(*config));
        BenchPoint &p = out.points[key.str()];
        p.ipc = number(*ipc);  // deterministic; any record will do
        const JsonValue *cached = rec.find("cached");
        const JsonValue *wall = rec.find("wall_ms");
        const bool uncached = !cached || !cached->boolean;
        const double wall_ms = wall ? number(*wall) : 0.0;
        if (wall && uncached && (p.wallMs < 0.0 || wall_ms < p.wallMs))
            p.wallMs = wall_ms;
        // Simulation throughput: prefer the recorded sim_khz; derive
        // it from cycles/wall_ms for journals predating the field.
        double khz = -1.0;
        const JsonValue *sim_khz = rec.find("sim_khz");
        const JsonValue *cycles = rec.find("cycles");
        if (sim_khz && number(*sim_khz) > 0.0) {
            khz = number(*sim_khz);
        } else if (uncached && wall_ms > 0.0 && cycles &&
                   number(*cycles) > 0.0) {
            khz = number(*cycles) / wall_ms;
        }
        if (khz > p.simKhz)
            p.simKhz = khz;
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

struct CompareOptions
{
    double maxIpcDrop = 0.02;       ///< relative, e.g. 0.02 = -2%
    double maxWallIncrease = 0.50;  ///< relative, e.g. 0.50 = +50%
    /**
     * Advisory sim-kHz drop threshold (relative, e.g. 0.25 = -25%).
     * Throughput deltas are always reported; when this is set, drops
     * beyond it are flagged in the output — but they never change the
     * exit code (sim-kHz is machine- and load-dependent).
     */
    double perfThreshold = -1.0;    ///< disabled when < 0
};

/**
 * Returns the number of regressions (0 = clean); @p compared reports
 * how many keys both journals could actually be diffed on.
 */
int
compareJournals(const Journal &base, const Journal &cur,
                const CompareOptions &opt, bool verbose,
                std::size_t &compared)
{
    int regressions = 0;
    compared = 0;
    std::printf("baseline: commit %s (%s)\n", base.commit.c_str(),
                base.generated.c_str());
    std::printf("current:  commit %s (%s)\n", cur.commit.c_str(),
                cur.generated.c_str());
    if (base.notOk + base.unusable + cur.notOk + cur.unusable) {
        std::printf("excluded records: baseline %zu failed + %zu "
                    "without metrics, current %zu failed + %zu "
                    "without metrics\n",
                    base.notOk, base.unusable, cur.notOk,
                    cur.unusable);
    }
    std::size_t perf_flags = 0;
    std::printf("\n%-34s %10s %10s %9s %9s %9s\n",
                "benchmark|scheme|cfg", "base ipc", "cur ipc",
                "d(ipc)", "d(wall)", "d(khz)");
    for (const auto &[key, b] : base.points) {
        auto it = cur.points.find(key);
        if (it == cur.points.end()) {
            std::printf("%-34s  missing from current journal\n",
                        key.c_str());
            continue;
        }
        const BenchPoint &c = it->second;
        ++compared;
        const double ipc_delta =
            b.ipc > 0.0 ? (c.ipc - b.ipc) / b.ipc : 0.0;
        const bool have_wall = b.wallMs > 0.0 && c.wallMs > 0.0;
        const double wall_delta =
            have_wall ? (c.wallMs - b.wallMs) / b.wallMs : 0.0;

        const bool have_khz = b.simKhz > 0.0 && c.simKhz > 0.0;
        const double khz_delta =
            have_khz ? (c.simKhz - b.simKhz) / b.simKhz : 0.0;

        const bool ipc_bad = ipc_delta < -opt.maxIpcDrop;
        const bool wall_bad = have_wall &&
            wall_delta > opt.maxWallIncrease;
        if (ipc_bad || wall_bad)
            ++regressions;
        // Advisory only: throughput is machine-dependent, so a flag
        // here annotates the report without failing the comparison.
        const bool khz_slow = opt.perfThreshold >= 0.0 && have_khz &&
            khz_delta < -opt.perfThreshold;
        if (khz_slow)
            ++perf_flags;

        char wall_text[32];
        if (have_wall)
            std::snprintf(wall_text, sizeof(wall_text), "%+8.1f%%",
                          100.0 * wall_delta);
        else
            std::snprintf(wall_text, sizeof(wall_text), "%9s", "-");
        char khz_text[32];
        if (have_khz)
            std::snprintf(khz_text, sizeof(khz_text), "%+8.1f%%",
                          100.0 * khz_delta);
        else
            std::snprintf(khz_text, sizeof(khz_text), "%9s", "-");
        std::printf("%-34s %10.4f %10.4f %+8.2f%% %s %s%s\n",
                    key.c_str(), b.ipc, c.ipc, 100.0 * ipc_delta,
                    wall_text, khz_text,
                    ipc_bad ? "  << IPC REGRESSION"
                            : (wall_bad ? "  << WALL REGRESSION"
                               : (khz_slow ? "  << slow (advisory)"
                                           : "")));
    }
    for (const auto &[key, c] : cur.points) {
        (void)c;
        if (!base.points.count(key) && verbose)
            std::printf("%-34s  new (not in baseline)\n",
                        key.c_str());
    }
    if (!compared)
        std::printf("\nincomparable: the journals share no "
                    "comparable record\n");
    else if (regressions)
        std::printf("\n%d regression(s) beyond thresholds "
                    "(ipc drop > %.1f%%, wall increase > %.1f%%)\n",
                    regressions, 100.0 * opt.maxIpcDrop,
                    100.0 * opt.maxWallIncrease);
    else
        std::printf("\nno regressions beyond thresholds "
                    "(%zu record(s) compared)\n", compared);
    if (perf_flags)
        std::printf("advisory: %zu record(s) lost more than %.1f%% "
                    "sim-kHz (does not affect the exit code)\n",
                    perf_flags, 100.0 * opt.perfThreshold);
    return regressions;
}

// ---- self test -------------------------------------------------------

/**
 * Built-in check used by ctest: exercises the parser and the
 * regression verdicts without needing journal files on disk.
 */
int
selfTest()
{
    const std::string base_text =
        "{\"version\":2,\"commit\":\"aaaa\",\"generated_utc\":"
        "\"2026-01-01T00:00:00Z\",\"results\":[\n"
        "  {\"benchmark\":\"gzip\",\"scheme\":\"baseline\","
        "\"config\":2,\"ipc\":0.664,\"cycles\":90253,"
        "\"wall_ms\":120.0,\"sim_khz\":752.1,\"cached\":false},\n"
        "  {\"benchmark\":\"gzip\",\"scheme\":\"dmdc-global\","
        "\"config\":2,\"ipc\":0.665,\"cycles\":90171,"
        "\"wall_ms\":0.0,\"sim_khz\":0.0,\"cached\":true}\n]}\n";

    auto variant = [&](double ipc, double wall, double khz = -1.0) {
        std::ostringstream os;
        os << "{\"version\":2,\"commit\":\"bbbb\",\"generated_utc\":"
              "\"2026-01-02T00:00:00Z\",\"results\":["
              "{\"benchmark\":\"gzip\",\"scheme\":\"baseline\","
              "\"config\":2,\"ipc\":"
           << ipc << ",\"cycles\":90253,\"wall_ms\":" << wall;
        if (khz >= 0.0)
            os << ",\"sim_khz\":" << khz;
        os << ",\"cached\":false},"
              "{\"benchmark\":\"gzip\",\"scheme\":\"dmdc-global\","
              "\"config\":2,\"ipc\":0.665,\"cycles\":90171,"
              "\"wall_ms\":0.0,\"cached\":true}]}";
        return os.str();
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
    expect(base.points.size() == 2, "two keys");
    expect(base.points.count("gzip|baseline|2") == 1, "key format");
    // Cached record must not contribute a wall-clock measurement.
    expect(base.points["gzip|dmdc-global|2"].wallMs < 0.0,
           "cached wall skipped");
    expect(base.points["gzip|baseline|2"].simKhz == 752.1,
           "recorded sim_khz wins");
    expect(base.points["gzip|dmdc-global|2"].simKhz < 0.0,
           "cached zero sim_khz skipped");

    const CompareOptions opt;
    std::size_t compared = 0;
    Journal same, slow, worse;
    expect(parseJournal(variant(0.664, 121.0), same, err),
           "parse identical");
    expect(parseJournal(variant(0.664, 400.0), slow, err),
           "parse slow");
    expect(parseJournal(variant(0.600, 121.0), worse, err),
           "parse worse");
    expect(compareJournals(base, same, opt, false, compared) == 0,
           "identical journals are clean");
    expect(compared == 2, "both keys compared");
    expect(compareJournals(base, slow, opt, false, compared) == 1,
           "wall-clock blowup is a regression");
    expect(compareJournals(base, worse, opt, false, compared) == 1,
           "ipc drop is a regression");

    // sim-kHz is derived from cycles/wall_ms when the field is
    // missing, and a drop past --perf-threshold is advisory: flagged
    // in the report, never counted as a regression.
    Journal derived;
    expect(parseJournal(variant(0.664, 130.0), derived, err),
           "parse khz-less journal");
    const double want_khz = 90253.0 / 130.0;
    const double got_khz = derived.points["gzip|baseline|2"].simKhz;
    expect(std::fabs(got_khz - want_khz) < 1e-9,
           "sim_khz derived from cycles/wall_ms");
    CompareOptions perf_opt;
    perf_opt.maxWallIncrease = 100.0;   // isolate the advisory path
    perf_opt.perfThreshold = 0.25;
    Journal crawl;
    expect(parseJournal(variant(0.664, 121.0, 100.0), crawl, err),
           "parse slow-khz journal");
    expect(compareJournals(base, crawl, perf_opt, false,
                           compared) == 0,
           "sim-khz drop past --perf-threshold stays advisory");

    Journal bad;
    expect(!parseJournal("{\"results\":42}", bad, err),
           "reject non-array results");
    expect(!parseJournal("not json", bad, err), "reject non-json");

    // Failure-manifest records and metric-free records are excluded,
    // never compared as zeros.
    const std::string degraded_text =
        "{\"version\":3,\"commit\":\"cccc\",\"results\":[\n"
        "  {\"benchmark\":\"gzip\",\"scheme\":\"baseline\","
        "\"config\":2,\"status\":\"failed\",\"category\":"
        "\"sim-invariant\",\"error\":\"injected fault: run-throw\","
        "\"attempts\":3,\"wall_ms\":1.0,\"cached\":false},\n"
        "  {\"benchmark\":\"gzip\",\"scheme\":\"dmdc-global\","
        "\"config\":2,\"status\":\"ok\",\"ipc\":0.665,"
        "\"cycles\":90171,\"wall_ms\":50.0,\"cached\":false},\n"
        "  {\"benchmark\":\"vpr\",\"scheme\":\"yla\",\"config\":2,"
        "\"status\":\"ok\",\"ipc\":nan,\"cycles\":1}\n]}\n";
    Journal degraded;
    expect(parseJournal(degraded_text, degraded, err),
           "parse degraded journal");
    expect(degraded.points.size() == 1, "only ok records kept");
    expect(degraded.notOk == 1, "failed record counted");
    expect(degraded.unusable == 1, "nan ipc counted");
    expect(compareJournals(base, degraded, opt, false, compared) == 0,
           "degraded journal compares clean on the overlap");
    expect(compared == 1, "overlap is the single surviving key");

    // Disjoint run sets are incomparable, not silently passing.
    const std::string disjoint_text =
        "{\"version\":3,\"commit\":\"dddd\",\"results\":["
        "{\"benchmark\":\"mcf\",\"scheme\":\"baseline\",\"config\":1,"
        "\"status\":\"ok\",\"ipc\":0.3,\"cycles\":5}]}";
    Journal disjoint;
    expect(parseJournal(disjoint_text, disjoint, err),
           "parse disjoint journal");
    expect(compareJournals(base, disjoint, opt, false, compared) == 0,
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
        "         [--verbose]\n"
        "       %s --selftest\n"
        "\n"
        "Diffs two bench journals produced by --json= and exits 1\n"
        "when the current one regresses IPC or wall clock beyond\n"
        "the thresholds. Simulation throughput (sim-kHz) deltas are\n"
        "always reported; --perf-threshold flags drops beyond FRAC\n"
        "in the report without affecting the exit code. Failed-run\n"
        "records and records without a finite IPC are excluded;\n"
        "journals sharing no comparable record exit 3 (incomparable).\n",
        argv0, argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    CompareOptions opt;
    bool verbose = false;
    std::vector<const char *> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest")
            return selfTest();
        if (arg == "--verbose") {
            verbose = true;
        } else if (arg.rfind("--max-ipc-drop=", 0) == 0) {
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
    const int regressions =
        compareJournals(base, cur, opt, verbose, compared);
    if (regressions)
        return 1;
    return compared ? 0 : 3;
}
