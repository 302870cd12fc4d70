/**
 * @file
 * Tests of the supervised shard launcher: heartbeat file round-trips,
 * the clock-agnostic staleness monitor, worker-fault spec parsing, and
 * end-to-end supervision through the real dmdc_sim / campaign_launch
 * binaries — crash -> restart convergence to the serial journal,
 * SIGTERM draining, and retry exhaustion, each finished by a relaunch
 * that the shared run cache alone makes converge.
 *
 * The integration tests receive the binary locations from CMake via
 * the DMDC_SIM_BIN / CAMPAIGN_LAUNCH_BIN compile definitions.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/cli_options.hh"
#include "sim/fault_injector.hh"
#include "sim/heartbeat.hh"
#include "sim/supervisor.hh"

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

// ---- heartbeat records -----------------------------------------------

TEST(HeartbeatRecordIO, PhaseNamesRoundTrip)
{
    for (HeartbeatPhase phase :
         {HeartbeatPhase::Starting, HeartbeatPhase::Running,
          HeartbeatPhase::Interrupted, HeartbeatPhase::Done}) {
        HeartbeatPhase parsed;
        ASSERT_TRUE(parseHeartbeatPhase(heartbeatPhaseName(phase),
                                        parsed));
        EXPECT_EQ(parsed, phase);
    }
    HeartbeatPhase parsed;
    EXPECT_FALSE(parseHeartbeatPhase("sleeping", parsed));
    EXPECT_FALSE(parseHeartbeatPhase("", parsed));
}

TEST(HeartbeatRecordIO, WriteReadRoundTrip)
{
    const fs::path dir =
        fs::temp_directory_path() / "dmdc_hb_roundtrip";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "heartbeat.json").string();

    HeartbeatRecord rec;
    rec.counter = 41;
    rec.completed = 7;
    rec.runsTotal = 12;
    rec.pid = 4242;
    rec.phase = HeartbeatPhase::Running;
    ASSERT_TRUE(writeHeartbeat(path, rec));

    HeartbeatRecord out;
    std::string err;
    ASSERT_TRUE(readHeartbeat(path, out, err)) << err;
    EXPECT_EQ(out.counter, 41u);
    EXPECT_EQ(out.completed, 7u);
    EXPECT_EQ(out.runsTotal, 12u);
    EXPECT_EQ(out.pid, 4242);
    EXPECT_EQ(out.phase, HeartbeatPhase::Running);

    // No stale temp file may survive the atomic publish.
    std::size_t files = 0;
    for (const auto &de : fs::directory_iterator(dir)) {
        (void)de;
        ++files;
    }
    EXPECT_EQ(files, 1u);
    fs::remove_all(dir);
}

TEST(HeartbeatRecordIO, MissingAndMalformedFilesFail)
{
    const fs::path dir =
        fs::temp_directory_path() / "dmdc_hb_malformed";
    fs::remove_all(dir);
    fs::create_directories(dir);

    HeartbeatRecord out;
    std::string err;
    EXPECT_FALSE(
        readHeartbeat((dir / "absent.json").string(), out, err));
    EXPECT_FALSE(err.empty());

    const struct
    {
        const char *name;
        const char *body;
    } bad[] = {
        {"empty.json", ""},
        {"truncated.json", "{\"version\":1,\"pid\":12"},
        {"not_json.json", "counter 12"},
        {"bad_phase.json",
         "{\"version\":1,\"pid\":1,\"counter\":2,\"completed\":0,"
         "\"runs_total\":4,\"phase\":\"zombie\"}"},
        {"bad_version.json",
         "{\"version\":99,\"pid\":1,\"counter\":2,\"completed\":0,"
         "\"runs_total\":4,\"phase\":\"running\"}"},
    };
    for (const auto &b : bad) {
        const fs::path p = dir / b.name;
        std::ofstream(p) << b.body;
        err.clear();
        EXPECT_FALSE(readHeartbeat(p.string(), out, err)) << b.name;
        EXPECT_FALSE(err.empty()) << b.name;
    }
    fs::remove_all(dir);
}

// ---- staleness monitor (fake clock) ----------------------------------

TEST(HeartbeatMonitorTest, DetectsStalenessWithFakeClock)
{
    HeartbeatMonitor mon(1000.0);
    mon.track(0, 0.0);

    // Fresh tracking: silent but not yet beyond the deadline.
    EXPECT_DOUBLE_EQ(mon.silentMs(0, 400.0), 400.0);
    EXPECT_FALSE(mon.hung(0, 999.0));
    EXPECT_FALSE(mon.hung(0, 1000.0));
    EXPECT_TRUE(mon.hung(0, 1000.1));

    // An advancing counter restarts the window.
    mon.observe(0, 1, 500.0);
    EXPECT_FALSE(mon.hung(0, 1400.0));
    EXPECT_TRUE(mon.hung(0, 1600.0));

    // The same counter re-observed is NOT progress.
    mon.observe(0, 1, 1400.0);
    EXPECT_TRUE(mon.hung(0, 1600.0));
}

TEST(HeartbeatMonitorTest, CounterResetCountsAsProgress)
{
    HeartbeatMonitor mon(1000.0);
    mon.track(0, 0.0);
    mon.observe(0, 57, 100.0);
    // A restarted worker publishes a smaller counter; that is a live
    // process and must reset the staleness window.
    mon.observe(0, 1, 900.0);
    EXPECT_FALSE(mon.hung(0, 1800.0));
    EXPECT_TRUE(mon.hung(0, 1901.0));
}

TEST(HeartbeatMonitorTest, TrackRearmsAndForgetStopsTracking)
{
    HeartbeatMonitor mon(500.0);
    mon.track(3, 0.0);
    EXPECT_TRUE(mon.hung(3, 2000.0));
    // Re-track at respawn: the predecessor's silence is forgiven.
    mon.track(3, 2000.0);
    EXPECT_FALSE(mon.hung(3, 2400.0));

    mon.forget(3);
    EXPECT_FALSE(mon.hung(3, 99999.0));
    EXPECT_DOUBLE_EQ(mon.silentMs(3, 99999.0), 0.0);
}

TEST(HeartbeatMonitorTest, UntrackedOrZeroDeadlineNeverHung)
{
    HeartbeatMonitor strict(100.0);
    EXPECT_FALSE(strict.hung(9, 1e9));

    HeartbeatMonitor disabled(0.0);
    disabled.track(0, 0.0);
    EXPECT_FALSE(disabled.hung(0, 1e9));
}

// ---- worker fault sites ----------------------------------------------

TEST(WorkerFaultSpec, ParsesWorkerSites)
{
    const FaultSpec spec =
        parseFaultSpec("worker-crash:p=0.25,worker-hang:p=0.5,seed=9");
    EXPECT_DOUBLE_EQ(spec.workerCrashP, 0.25);
    EXPECT_DOUBLE_EQ(spec.workerHangP, 0.5);
    EXPECT_EQ(spec.seed, 9u);
    EXPECT_TRUE(spec.any());

    FaultInjector inj;
    inj.configure(spec);
    // p=1 always fires, p=0 never does, and decisions are pure in
    // (site, key, attempt).
    FaultSpec certain;
    certain.workerCrashP = 1.0;
    inj.configure(certain);
    EXPECT_TRUE(inj.injectWorkerCrash("run-a", 0));
    EXPECT_FALSE(inj.injectWorkerHang("run-a", 0));
    inj.configure({});
    EXPECT_FALSE(inj.injectWorkerCrash("run-a", 0));
}

// ---- end-to-end supervision ------------------------------------------

/**
 * Drives the real binaries. Each test gets a scratch directory; the
 * campaign is small (4 runs: 2 benches x 2 schemes) so even the chaos
 * variants finish in seconds.
 */
class SupervisedLaunch : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        scratch_ = fs::temp_directory_path() /
            ("dmdc_sup_" + std::string(::testing::UnitTest::GetInstance()
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

    std::string
    campaignArgs() const
    {
        return "--bench=gzip,swim --scheme=baseline,yla "
               "--insts=20000 --warmup=2000";
    }

    /** Serial --json-deterministic reference journal. */
    std::string
    serialJournal()
    {
        const fs::path out = scratch_ / "serial.json";
        const std::string cmd = std::string(DMDC_SIM_BIN) + " " +
            campaignArgs() +
            " --cache-dir=" + (scratch_ / "serial_cache").string() +
            " --json-deterministic --json=" + out.string() +
            " > /dev/null 2>&1";
        EXPECT_EQ(shell(cmd), 0);
        return slurp(out);
    }

    /** campaign_launch command line (shared cache + launch dir per
     *  fixture, so sequential invocations resume each other). */
    std::string
    launchCmd(const std::string &extra) const
    {
        return std::string(CAMPAIGN_LAUNCH_BIN) +
            " --procs=2 --heartbeat-interval=50" +
            " --launch-dir=" + (scratch_ / "launch").string() +
            " --out=" + (scratch_ / "merged.json").string() + " " +
            extra + " " + campaignArgs() +
            " --cache-dir=" + (scratch_ / "chaos_cache").string() +
            " --jobs=2";
    }

    fs::path scratch_;
};

TEST_F(SupervisedLaunch, CrashedWorkersRestartAndConverge)
{
    const std::string serial = serialJournal();
    ASSERT_FALSE(serial.empty());

    // p=1: every worker SIGKILLs itself after each freshly simulated
    // run (which has already been cached), so each 2-run shard needs
    // two restarts before a final all-cached pass completes it.
    const int rc = shell("DMDC_FAULT='worker-crash:p=1,seed=3' " +
                         launchCmd("--shard-retries=8") +
                         " > /dev/null 2>&1");
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(slurp(scratch_ / "merged.json"), serial);
}

TEST_F(SupervisedLaunch, RetryExhaustionFailsAndRelaunchConverges)
{
    const int rc = shell("DMDC_FAULT='worker-crash:p=1,seed=3' " +
                         launchCmd("--shard-retries=0") +
                         " > /dev/null 2>&1");
    EXPECT_EQ(rc, kExitFailure);
    EXPECT_FALSE(fs::exists(scratch_ / "merged.json"));

    // Both shards cached one run before dying. A fresh chaos-free
    // launch (the launch dir is wiped) converges from the shared run
    // cache alone.
    const std::string serial = serialJournal();
    EXPECT_EQ(shell(launchCmd("--shard-retries=0") + " > /dev/null 2>&1"),
              0);
    EXPECT_EQ(slurp(scratch_ / "merged.json"), serial);
}

TEST_F(SupervisedLaunch, SigtermDrainsAndRelaunchConverges)
{
    const std::string serial = serialJournal();
    ASSERT_FALSE(serial.empty());

    // Launch under worker-hang-free conditions, interrupt it early.
    std::vector<std::string> argStrings;
    {
        std::istringstream is(launchCmd("--shard-retries=2"));
        for (std::string tok; is >> tok;)
            argStrings.push_back(tok);
    }
    std::vector<char *> argvv;
    for (auto &s : argStrings)
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

    // Give the launcher time to spawn workers and start simulating,
    // then request a graceful stop.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    ASSERT_EQ(::kill(pid, SIGTERM), 0);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    const int rc = WEXITSTATUS(status);
    // Exit 0 means the campaign won the race and finished before the
    // signal landed — legal, and the merged journal must already be
    // serial-identical. Otherwise the launch reports interruption.
    if (rc != 0) {
        EXPECT_EQ(rc, kExitInterrupted);
    }

    // A --resume relaunch completes the campaign either way, without
    // losing the work the drained workers cached.
    EXPECT_EQ(shell(launchCmd("--shard-retries=2 --resume") +
                    " > /dev/null 2>&1"),
              0);
    EXPECT_EQ(slurp(scratch_ / "merged.json"), serial);
}

} // namespace
} // namespace dmdc
