/**
 * @file
 * Process-level recovery of dmdc_sim campaigns: a SIGTERM'd campaign
 * drains and exits kExitInterrupted with a flushed journal, a process
 * SIGKILLed by the worker-crash fault site leaves every finished run
 * in the run cache, and in both cases rerunning the same command
 * converges to a journal byte-identical to the serial
 * --json-deterministic run. Recovery needs nothing but the run cache.
 * Campaigns started together on one cache simulate each run once
 * between them (the run cache's per-key claims). A bad command line
 * exits kExitUsage before anything simulates, in single-run and
 * campaign mode alike. --timeout reaches dmdc_sim's in-process
 * --stats run. A bench harness's --fail-fast covers its whole run
 * grid, and its --check and --timeout reach every run of the grid.
 *
 * Journal rows keep their run identity, so bench_compare compares
 * every run of a sweep and names a result field that moved; a
 * malformed threshold, number token, string or nesting depth makes it
 * exit kExitUsage.
 *
 * The integration tests receive the dmdc_sim, fig4_dmdc_main and
 * bench_compare locations from CMake via the DMDC_SIM_BIN, BENCH_BIN
 * and BENCH_COMPARE_BIN compile definitions.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "sim/cli_options.hh"
#include "sim/fault_injector.hh"

namespace dmdc
{
namespace
{

namespace fs = std::filesystem;

std::string
slurp(const fs::path &path)
{
    std::ifstream is(path);
    std::stringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

/** Run @p cmd through the shell; returns the exit code (or -1). */
int
shell(const std::string &cmd)
{
    const int rc = std::system(cmd.c_str());
    if (rc == -1)
        return -1;
    if (WIFEXITED(rc))
        return WEXITSTATUS(rc);
    return 128 + (WIFSIGNALED(rc) ? WTERMSIG(rc) : 0);
}

// ---- worker-crash fault site -----------------------------------------

TEST(WorkerFaultSpec, ParsesWorkerCrashSite)
{
    const FaultSpec spec = parseFaultSpec("worker-crash:p=0.25,seed=9");
    EXPECT_DOUBLE_EQ(spec.workerCrashP, 0.25);
    EXPECT_EQ(spec.seed, 9u);
    EXPECT_TRUE(spec.any());

    // p=1 always fires, p=0 never does, and decisions are pure in
    // (site, key).
    FaultInjector inj;
    FaultSpec certain;
    certain.workerCrashP = 1.0;
    inj.configure(certain);
    EXPECT_TRUE(inj.injectWorkerCrash("run-a"));
    inj.configure({});
    EXPECT_FALSE(inj.injectWorkerCrash("run-a"));
}

// ---- bad command lines -----------------------------------------------

TEST(BadCommandLine, ExitsUsageInEveryMode)
{
    const std::string quiet = " --insts=20000 --warmup=2000 --no-cache"
                              " > /dev/null 2>&1";
    // A bad run in a campaign is a command line error, exactly as it
    // is for a single run: nothing simulates.
    EXPECT_EQ(shell(std::string(DMDC_SIM_BIN) +
                    " --bench=gzip,swim --config=9" + quiet),
              kExitUsage);
    EXPECT_EQ(shell(std::string(DMDC_SIM_BIN) +
                    " --bench=gzip --config=9" + quiet),
              kExitUsage);
    for (const char *bad : {"--timeout=-5", "--cache-max-mb=1"}) {
        EXPECT_EQ(shell(std::string(DMDC_SIM_BIN) + " " + bad + quiet),
                  kExitUsage)
            << bad;
    }
    for (const char *bad : {"--verbose", "--cache-max-mb=1",
                            "--timeout=-5"}) {
        EXPECT_EQ(shell(std::string(BENCH_BIN) + " --quick " + bad +
                        " --no-cache > /dev/null 2>&1"),
                  kExitUsage)
            << bad;
    }
}

TEST(DmdcSimStats, HonoursTimeout)
{
    // --stats simulates in-process, outside the campaign runner; the
    // run template still carries --timeout into it.
    const fs::path err = fs::temp_directory_path() /
        ("dmdc_stats_timeout_" + std::to_string(::getpid()) + ".txt");
    EXPECT_EQ(shell(std::string(DMDC_SIM_BIN) +
                    " --bench=gzip --insts=3000000 --warmup=1000"
                    " --timeout=1 --no-cache --stats > /dev/null 2> " +
                    err.string()),
              kExitFailure);
    const std::string text = slurp(err);
    fs::remove(err);
    EXPECT_NE(text.find("timeout"), std::string::npos) << text;
}

// ---- bench harnesses -------------------------------------------------

/** The "results" rows of the journal at @p path (removed after). */
std::vector<JsonValue>
journalRows(const fs::path &path)
{
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(parseJson(slurp(path), doc, err)) << err;
    fs::remove(path);
    const JsonValue *results = doc.find("results");
    return results ? results->items : std::vector<JsonValue>{};
}

TEST(BenchHarness, RunFlagsReachEveryRun)
{
    // --check and --timeout are part of the run template every grid
    // run starts from.
    const fs::path journal = fs::temp_directory_path() /
        ("dmdc_runflags_" + std::to_string(::getpid()) + ".json");
    const std::string cmd = std::string(BENCH_BIN) +
        " --quick --bench=gzip --no-cache --json=" + journal.string();
    EXPECT_EQ(shell(cmd + " --check=oracle > /dev/null 2>&1"), kExitOk);
    std::vector<JsonValue> rows = journalRows(journal);
    EXPECT_EQ(rows.size(), 6u);
    for (const JsonValue &r : rows) {
        const JsonValue *check = r.find("check");
        ASSERT_NE(check, nullptr);
        EXPECT_EQ(check->text, "oracle");
    }

    EXPECT_EQ(shell(cmd + " --timeout=1 --max-retries=0 --insts=3000000"
                          " > /dev/null 2>&1"),
              kExitDegraded);
    rows = journalRows(journal);
    EXPECT_EQ(rows.size(), 6u);
    for (const JsonValue &r : rows)
        EXPECT_EQ(r.find("status")->text, "timed-out");
}

TEST(BenchHarness, FailFastCoversTheWholeGrid)
{
    // fig4's 24 --quick runs are one campaign, so on one worker the
    // first failure skips every later run of the table, not only the
    // rest of one scheme's suite.
    const fs::path journal = fs::temp_directory_path() /
        ("dmdc_failfast_" + std::to_string(::getpid()) + ".json");
    EXPECT_EQ(shell("DMDC_FAULT=run-throw:p=1 " + std::string(BENCH_BIN) +
                    " --quick --jobs=1 --no-cache --fail-fast"
                    " --max-retries=0 --json=" + journal.string() +
                    " > /dev/null 2>&1"),
              kExitDegraded);
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(slurp(journal), doc, err)) << err;
    fs::remove(journal);
    const JsonValue *results = doc.find("results");
    ASSERT_NE(results, nullptr);
    std::map<std::string, std::size_t> by_status;
    for (const JsonValue &r : results->items)
        ++by_status[r.find("status")->text];
    EXPECT_EQ(by_status, (std::map<std::string, std::size_t>{
                             {"failed", 1}, {"skipped", 23}}));
}

// ---- bench_compare on real journals ------------------------------------

/** Run @p runs, uncached, into the deterministic journal @p path. */
void
writeJournal(const std::vector<SimOptions> &runs, const fs::path &path)
{
    CampaignConfig cfg;
    cfg.useCache = false;
    cfg.journalPath = path.string();
    cfg.journalDeterministic = true;
    CampaignRunner runner(cfg);
    ASSERT_TRUE(runner.runChecked(runs).allOk());
}

/** bench_compare @p base @p cur; its exit code, stdout in @p out. */
int
benchCompare(const fs::path &base, const fs::path &cur, std::string &out)
{
    const fs::path text = cur.string() + ".compare.txt";
    const int rc = shell(std::string(BENCH_COMPARE_BIN) + " " +
                         base.string() + " " + cur.string() + " > " +
                         text.string() + " 2>&1");
    out = slurp(text);
    return rc;
}

/** swim, dmdc-global, config 2, with coherence at @p rate. */
SimOptions
sweepRun(double rate)
{
    SimOptions opt;
    opt.benchmark = "swim";
    opt.scheme = "dmdc-global";
    opt.warmupInsts = 2000;
    opt.runInsts = 20000;
    opt.coherence = true;
    opt.invalidationsPer1kCycles = rate;
    return opt;
}

class JournalCompare : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
            ("dmdc_jcmp_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    fs::path dir_;
};

TEST_F(JournalCompare, SweepRowsKeepTheirOwnIdentity)
{
    // One (benchmark, scheme, config) triple at four invalidation
    // rates is four rows with four run identities, and a journal
    // compared with itself compares all four. Keyed on the triple, it
    // compared one.
    const fs::path journal = dir_ / "sweep.json";
    writeJournal({sweepRun(0.0), sweepRun(1.0), sweepRun(10.0),
                  sweepRun(100.0)},
                 journal);
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(slurp(journal), doc, err)) << err;
    const JsonValue *rows = doc.find("results");
    ASSERT_NE(rows, nullptr);
    std::set<std::string> runs;
    for (const JsonValue &row : rows->items)
        runs.insert(row.find("run")->text);
    EXPECT_EQ(rows->items.size(), 4u);
    EXPECT_EQ(runs.size(), 4u);

    std::string out;
    EXPECT_EQ(benchCompare(journal, journal, out), 0) << out;
    EXPECT_NE(out.find("(4 row(s) compared)"), std::string::npos) << out;
    EXPECT_EQ(out.find("differ in result fields"), std::string::npos)
        << out;
}

TEST_F(JournalCompare, NamesAMovedReplayClass)
{
    // Two journals that differ only in one row's false_hash_x: the
    // report names that field of that row, and nothing else.
    const fs::path base = dir_ / "base.json";
    writeJournal({sweepRun(0.0), sweepRun(10.0)}, base);
    std::string text = slurp(base);
    const std::string field = "\"false_hash_x\":";
    const std::size_t first = text.find(field);
    ASSERT_NE(first, std::string::npos);
    const std::size_t at = text.find(field, first + 1);
    ASSERT_NE(at, std::string::npos);
    const std::size_t value = at + field.size();
    const std::size_t end = text.find(',', value);
    const std::string old_count = text.substr(value, end - value);
    const std::string new_count =
        std::to_string(std::stoull(old_count) + 1);
    text.replace(value, end - value, new_count);
    const fs::path cur = dir_ / "cur.json";
    std::ofstream(cur) << text;

    std::string out;
    EXPECT_EQ(benchCompare(base, cur, out), 0) << out;
    EXPECT_NE(out.find("    false_hash_x: " + old_count + " -> " +
                       new_count + "\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("1 compared row(s) differ in result fields"),
              std::string::npos)
        << out;
}

TEST_F(JournalCompare, MalformedFlagsAndJournalsExitUsage)
{
    const fs::path journal = dir_ / "base.json";
    writeJournal({sweepRun(0.0)}, journal);
    std::string out;
    ASSERT_EQ(benchCompare(journal, journal, out), 0) << out;

    // A malformed threshold is a usage error, never a threshold of 0.
    for (const char *bad : {"--perf-threshold=abc", "--max-ipc-drop=1x",
                            "--max-wall-increase="}) {
        EXPECT_EQ(shell(std::string(BENCH_COMPARE_BIN) + " " +
                        journal.string() + " " + journal.string() + " " +
                        bad + " > /dev/null 2>&1"),
                  kExitUsage)
            << bad;
    }

    // A number token outside JSON's grammar makes the journal
    // malformed; it is not read as its leading "1".
    std::string text = slurp(journal);
    const std::string field = "\"ipc\":";
    const std::size_t value = text.find(field);
    ASSERT_NE(value, std::string::npos);
    const std::size_t start = value + field.size();
    text.replace(start, text.find(',', start) - start, "1-2");
    const fs::path mangled = dir_ / "mangled.json";
    std::ofstream(mangled) << text;
    EXPECT_EQ(benchCompare(journal, mangled, out), kExitUsage) << out;
    EXPECT_NE(out.find("malformed JSON"), std::string::npos) << out;

    // So does a raw tab inside a row's "run" string...
    text = slurp(journal);
    const std::string run = "\"run\":\"";
    const std::size_t identity = text.find(run);
    ASSERT_NE(identity, std::string::npos);
    text.insert(identity + run.size(), "\t");
    const fs::path tabbed = dir_ / "tabbed.json";
    std::ofstream(tabbed) << text;
    EXPECT_EQ(benchCompare(journal, tabbed, out), kExitUsage) << out;
    EXPECT_NE(out.find("control character"), std::string::npos) << out;

    // ...and nesting past the parser's bound (100 k nested arrays
    // would overflow the stack of a parser that recursed unbounded).
    const fs::path deep = dir_ / "deep.json";
    std::ofstream(deep) << std::string(100000, '[')
                        << std::string(100000, ']');
    EXPECT_EQ(benchCompare(deep, deep, out), kExitUsage) << out;
    EXPECT_NE(out.find("nesting"), std::string::npos) << out;
}

// ---- end-to-end recovery ---------------------------------------------

/**
 * Drives the real dmdc_sim binary. Each test gets a scratch directory
 * holding a reference cache, a recovery cache and the journals.
 */
class ProcessRecovery : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        scratch_ = fs::temp_directory_path() /
            ("dmdc_recovery_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
        fs::remove_all(scratch_);
        fs::create_directories(scratch_);
    }

    void
    TearDown() override
    {
        fs::remove_all(scratch_);
    }

    /** Full dmdc_sim argv of the test's campaign (benches_ x two
     *  schemes, insts_ instructions each), journaling to @p journal
     *  over @p cache. */
    std::vector<std::string>
    argv(const std::string &cache, const std::string &journal,
         bool deterministic = true) const
    {
        std::vector<std::string> args = {
            DMDC_SIM_BIN,
            "--bench=" + benches_,
            "--scheme=baseline,yla",
            "--insts=" + insts_,
            "--warmup=2000",
            "--jobs=2",
            "--cache-dir=" + (scratch_ / cache).string(),
            "--json=" + (scratch_ / journal).string()};
        if (deterministic)
            args.push_back("--json-deterministic");
        return args;
    }

    /** Run every argv in @p cmds at the same time; 0 when all exit
     *  0. */
    static int
    concurrently(const std::vector<std::vector<std::string>> &cmds)
    {
        std::string script = "pids=; ";
        for (const std::vector<std::string> &args : cmds)
            script += commandLine(args) + " & pids=\"$pids $!\"; ";
        return shell(script + "rc=0; for p in $pids; do wait $p || "
                              "rc=1; done; exit $rc");
    }

    static std::string
    commandLine(const std::vector<std::string> &args)
    {
        std::string cmd;
        for (const std::string &a : args)
            cmd += a + " ";
        return cmd + "> /dev/null 2>&1";
    }

    /** Uninterrupted --json-deterministic reference journal. */
    std::string
    serialJournal()
    {
        EXPECT_EQ(shell(commandLine(argv("serial_cache", "serial.json"))),
                  0);
        return slurp(scratch_ / "serial.json");
    }

    /** Has any run reached the cache directory @p cache yet? */
    bool
    anyRunCached(const std::string &cache) const
    {
        std::error_code ec;
        for (const auto &de : fs::directory_iterator(scratch_ / cache, ec)) {
            if (de.path().extension() == ".json")
                return true;
        }
        return false;
    }

    fs::path scratch_;
    std::string benches_ = "gzip,swim";
    std::string insts_ = "20000";
};

TEST_F(ProcessRecovery, SigtermDrainsAndRerunConverges)
{
    // Six runs on two threads, long enough that a signal sent once the
    // first run is cached lands while later runs are still pending.
    benches_ = "gzip,swim,vpr";
    insts_ = "200000";
    const std::string serial = serialJournal();
    ASSERT_FALSE(serial.empty());

    std::vector<std::string> args = argv("cache", "interrupted.json");
    std::vector<char *> argvv;
    for (std::string &s : args)
        argvv.push_back(s.data());
    argvv.push_back(nullptr);

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        const int null = ::open("/dev/null", O_WRONLY);
        if (null >= 0) {
            ::dup2(null, 1);
            ::dup2(null, 2);
        }
        ::execv(argvv[0], argvv.data());
        ::_exit(127);
    }

    // Request a graceful stop once the campaign has made progress.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!anyRunCached("cache") &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(::kill(pid, SIGTERM), 0);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    const int rc = WEXITSTATUS(status);
    // Exit 0 means the campaign won the race and finished before the
    // signal landed; otherwise it reports the interruption.
    if (rc != kExitOk) {
        EXPECT_EQ(rc, kExitInterrupted);
    }

    // Either way the journal was flushed whole: every run is recorded,
    // as finished or as skipped by the interrupt.
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(
        parseJson(slurp(scratch_ / "interrupted.json"), doc, err))
        << err;
    const JsonValue *results = doc.find("results");
    ASSERT_NE(results, nullptr);
    EXPECT_EQ(results->items.size(), 6u);
    std::size_t skipped = 0;
    for (const JsonValue &r : results->items) {
        const std::string status_text = r.find("status")->text;
        EXPECT_TRUE(status_text == "ok" || status_text == "skipped")
            << status_text;
        skipped += status_text == "skipped";
    }
    EXPECT_EQ(skipped > 0, rc == kExitInterrupted);

    // Rerunning the same command completes the campaign without losing
    // the work the drained process cached.
    EXPECT_EQ(shell(commandLine(argv("cache", "rerun.json"))), kExitOk);
    EXPECT_EQ(slurp(scratch_ / "rerun.json"), serial);
}

TEST_F(ProcessRecovery, WorkerCrashLoopConvergesWithinRunsPlusOne)
{
    const std::size_t runs = 4;
    const std::string serial = serialJournal();
    ASSERT_FALSE(serial.empty());

    // p=1: the process SIGKILLs itself after every freshly simulated
    // run, which has already been cached. Each invocation therefore
    // caches at least one run, and the one after the last fresh run is
    // served entirely from the cache.
    const std::string cmd = "DMDC_FAULT='worker-crash:p=1,seed=3' " +
        commandLine(argv("cache", "chaos.json"));
    std::size_t invocations = 0;
    int rc = -1;
    while (rc != kExitOk && invocations < runs + 1) {
        rc = shell(cmd);
        ++invocations;
        if (rc != kExitOk) {
            EXPECT_EQ(rc, 128 + SIGKILL) << "invocation " << invocations;
        }
    }
    EXPECT_EQ(rc, kExitOk) << "no clean exit in " << invocations
                           << " invocations";
    EXPECT_GE(invocations, 2u);
    EXPECT_EQ(slurp(scratch_ / "chaos.json"), serial);
}

TEST_F(ProcessRecovery, ConcurrentCampaignsSimulateEachRunOnce)
{
    benches_ = "gzip,swim,vpr,mcf";
    const std::string serial = serialJournal();
    ASSERT_FALSE(serial.empty());

    const char *const procs[] = {"a.json", "b.json", "c.json"};

    // Deterministic journals: each byte-identical to the serial run.
    std::vector<std::vector<std::string>> det;
    for (const char *journal : procs)
        det.push_back(argv("shared_det", std::string("det_") + journal));
    ASSERT_EQ(concurrently(det), 0);
    for (const char *journal : procs)
        EXPECT_EQ(slurp(scratch_ / (std::string("det_") + journal)),
                  serial)
            << journal;

    // Full journals on a fresh cache: every run is simulated by exactly
    // one of the three processes, and served from disk to the others.
    std::vector<std::vector<std::string>> full;
    for (const char *journal : procs)
        full.push_back(argv("shared", journal, false));
    ASSERT_EQ(concurrently(full), 0);
    std::map<std::string, int> fresh;
    for (const char *journal : procs) {
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(parseJson(slurp(scratch_ / journal), doc, err))
            << err;
        const JsonValue *results = doc.find("results");
        ASSERT_NE(results, nullptr);
        EXPECT_EQ(results->items.size(), 8u) << journal;
        for (const JsonValue &r : results->items) {
            fresh[r.find("run")->text] +=
                r.find("cached")->kind == JsonValue::Kind::Bool &&
                !r.find("cached")->boolean;
        }
    }
    EXPECT_EQ(fresh.size(), 8u);
    for (const auto &[id, simulated] : fresh)
        EXPECT_EQ(simulated, 1) << id;
}

} // namespace
} // namespace dmdc
