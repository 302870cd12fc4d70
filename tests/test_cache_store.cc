/**
 * @file
 * Tests of the cache storage engine (sim/cache_store.hh): the CRC
 * frame and quarantine, leftover index files of older caches being
 * ignored, and — the part that cannot be faked in-process — two real
 * processes writing the same keys at once must see no torn entry and
 * quarantine nothing. The per-key claim rules (exclusive, dead or own
 * pid taken over, other hosts ignored, released by every run, never
 * counted as entries) close the file.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "sim/cache_store.hh"
#include "sim/campaign_runner.hh"
#include "sim/fault_injector.hh"

namespace dmdc
{
namespace
{

namespace fs = std::filesystem;

std::size_t
countEntries(const std::string &dir)
{
    std::size_t n = 0;
    if (!fs::exists(dir))
        return 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().extension() == ".json")
            ++n;
    }
    return n;
}

CacheStoreConfig
storeConfig(const std::string &dir)
{
    CacheStoreConfig cfg;
    cfg.dir = dir;
    return cfg;
}

class CacheStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::string("cache_store_test_") +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()->name();
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

TEST_F(CacheStoreTest, StoreLoadRoundTrip)
{
    CacheStore store(storeConfig(dir_));
    const std::string payload = "{\"v\":1,\"data\":\"hello\"}";
    store.store("key-a", payload);

    std::string out;
    EXPECT_EQ(store.load("key-a", out), CacheStore::Load::Hit);
    EXPECT_EQ(out, payload);
    EXPECT_EQ(store.load("key-b", out), CacheStore::Load::Miss);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.liveEntries(), 1u);
}

TEST_F(CacheStoreTest, SiblingInstanceSeesStores)
{
    // Two in-process instances model two processes politely taking
    // turns: writes through one must become visible to the other.
    CacheStore a(storeConfig(dir_));
    CacheStore b(storeConfig(dir_));
    a.store("key-a", "payload-a");

    std::string out;
    EXPECT_EQ(b.load("key-a", out), CacheStore::Load::Hit);
    EXPECT_EQ(out, "payload-a");
    b.store("key-b", "payload-b");
    EXPECT_EQ(a.load("key-b", out), CacheStore::Load::Hit);
    EXPECT_EQ(a.liveEntries(), 2u);
    EXPECT_EQ(b.liveEntries(), 2u);
}

TEST_F(CacheStoreTest, DamagedEntryQuarantined)
{
    CacheStore store(storeConfig(dir_));
    store.store("key-a", "{\"v\":1,\"data\":\"abcdefgh\"}");

    // Damage the entry in place (flip payload bytes, keep the size).
    fs::path victim;
    for (const auto &e : fs::directory_iterator(dir_)) {
        if (e.path().extension() == ".json")
            victim = e.path();
    }
    ASSERT_FALSE(victim.empty());
    std::fstream f(victim,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-4, std::ios::end);
    f.write("!!!!", 4);
    f.close();

    CacheStore fresh(storeConfig(dir_));
    std::string out;
    EXPECT_EQ(fresh.load("key-a", out), CacheStore::Load::Corrupt);
    EXPECT_EQ(fresh.stats().quarantined, 1u);
    EXPECT_EQ(countEntries(dir_), 0u);
    EXPECT_TRUE(fs::exists(fs::path(dir_) / "quarantine"));
    // Quarantined means forgotten: the next probe is a clean miss.
    EXPECT_EQ(fresh.load("key-a", out), CacheStore::Load::Miss);
}

// ---- real multi-process concurrency ----------------------------------

/** Run @p child in a forked process; return its exit status (-1 on
 *  infrastructure failure). The child must _exit(), never return
 *  through gtest. */
template <typename Fn>
int
runForked(Fn child)
{
    const pid_t pid = fork();
    if (pid < 0)
        return -1;
    if (pid == 0)
        child(); // must _exit()
    int status = 0;
    if (waitpid(pid, &status, 0) != pid)
        return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** Pid of a child that has exited and been reaped. */
pid_t
runForkedPid()
{
    const pid_t pid = fork();
    if (pid == 0)
        _exit(0);
    waitpid(pid, nullptr, 0);
    return pid;
}

TEST_F(CacheStoreTest, TwoProcessSameKeyWriters)
{
    // Parent and child both hammer the same keys with identical
    // payloads (the only legal concurrent-writer case: cache entries
    // are deterministic functions of their key). No load on either
    // side may ever see a torn entry, and nothing may be quarantined.
    const std::string dir = dir_;
    constexpr int kIters = 60;
    auto payloadOf = [](int i) {
        return "{\"v\":1,\"data\":\"" + std::string(20 + i % 7, 'd') +
               "\"}";
    };
    auto hammer = [&](CacheStore &store) -> int {
        std::string out;
        for (int i = 0; i < kIters; ++i) {
            const std::string key = "key-" + std::to_string(i % 3);
            const std::string payload = payloadOf(i % 3);
            store.store(key, payload);
            const CacheStore::Load r = store.load(key, out);
            if (r == CacheStore::Load::Corrupt)
                return 2;
            if (r == CacheStore::Load::Hit && out != payload)
                return 3;
        }
        return store.stats().quarantined == 0 ? 0 : 4;
    };

    const int child_status = runForked([&] {
        CacheStore store(storeConfig(dir));
        _exit(hammer(store));
    });
    CacheStore store(storeConfig(dir));
    const int parent_status = hammer(store);

    EXPECT_EQ(child_status, 0);
    EXPECT_EQ(parent_status, 0);

    CacheStore fresh(storeConfig(dir));
    std::string out;
    for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(fresh.load("key-" + std::to_string(k), out),
                  CacheStore::Load::Hit)
            << "entry " << k << " lost";
        EXPECT_EQ(out, payloadOf(k));
    }
    EXPECT_EQ(fresh.stats().quarantined, 0u);
}

TEST_F(CacheStoreTest, LeftoverIndexFilesAreIgnored)
{
    // Caches written before the index was removed still hold
    // index.log and index.lock: entries keep hitting, and neither file
    // is counted or removed.
    {
        CacheStore store(storeConfig(dir_));
        store.store("key-a", "payload-a");
        store.store("key-b", "payload-b");
    }
    {
        std::ofstream log(fs::path(dir_) / "index.log");
        for (int i = 0; i < 64; ++i)
            log << "{\"v\":1,\"op\":\"put\",\"file\":"
                   "\"0123456789abcdef.json\",\"bytes\":4096,"
                   "\"crc\":\"00000000\"}\n";
        std::ofstream(fs::path(dir_) / "index.lock");
    }

    CacheStore store(storeConfig(dir_));
    EXPECT_EQ(store.liveEntries(), 2u);
    std::string out;
    EXPECT_EQ(store.load("key-a", out), CacheStore::Load::Hit);
    EXPECT_EQ(out, "payload-a");
    EXPECT_EQ(store.load("key-b", out), CacheStore::Load::Hit);
    EXPECT_TRUE(fs::exists(fs::path(dir_) / "index.log"));
    EXPECT_TRUE(fs::exists(fs::path(dir_) / "index.lock"));
    EXPECT_EQ(store.stats().quarantined, 0u);
}

// ---- per-key claims ---------------------------------------------------

std::string
thisHost()
{
    char host[256] = {0};
    gethostname(host, sizeof(host) - 1);
    return host;
}

std::string
claimText(long pid, const std::string &host)
{
    return std::to_string(pid) + " " + host + "\n";
}

/** Write a claim for @p key by hand, as another process would. */
void
plantClaim(const CacheStore &store, const std::string &key,
           const std::string &text)
{
    fs::create_directories(store.config().dir);
    std::ofstream(store.claimPath(key)) << text;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    return std::string(std::istreambuf_iterator<char>(is), {});
}

/** Claim files (and set-aside stale ones) left in @p dir. */
std::size_t
countClaims(const std::string &dir)
{
    std::size_t n = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().filename().string().find(".claim") !=
            std::string::npos)
            ++n;
    }
    return n;
}

TEST_F(CacheStoreTest, ClaimExcludesOtherLiveProcess)
{
    CacheStore store(storeConfig(dir_));
    ASSERT_EQ(store.claim("key-a"), CacheStore::Claim::Won);
    EXPECT_EQ(slurp(store.claimPath("key-a")),
              claimText(getpid(), thisHost()));

    // A second live process on this host must defer to the holder...
    const std::string dir = dir_;
    EXPECT_EQ(runForked([&] {
                  CacheStore other(storeConfig(dir));
                  _exit(static_cast<int>(other.claim("key-a")));
              }),
              static_cast<int>(CacheStore::Claim::Held));

    // ...until the holder releases; then the next claimant wins.
    store.releaseClaim("key-a");
    EXPECT_FALSE(fs::exists(store.claimPath("key-a")));
    EXPECT_EQ(runForked([&] {
                  CacheStore other(storeConfig(dir));
                  const CacheStore::Claim c = other.claim("key-a");
                  other.releaseClaim("key-a");
                  _exit(static_cast<int>(c));
              }),
              static_cast<int>(CacheStore::Claim::Won));
    EXPECT_EQ(countClaims(dir_), 0u);
}

TEST_F(CacheStoreTest, DeadHolderClaimIsTakenOver)
{
    // A reaped child's pid names no process: kill(pid, 0) is ESRCH.
    const pid_t dead = runForkedPid();
    CacheStore store(storeConfig(dir_));
    plantClaim(store, "key-a", claimText(dead, thisHost()));

    EXPECT_EQ(store.claim("key-a"), CacheStore::Claim::Won);
    EXPECT_EQ(slurp(store.claimPath("key-a")),
              claimText(getpid(), thisHost()));
    store.releaseClaim("key-a");
    EXPECT_EQ(countClaims(dir_), 0u);
}

TEST_F(CacheStoreTest, OwnPidClaimIsTakenOver)
{
    // Only an earlier process with the same pid can have left it: this
    // process dedups its own keys before it ever claims.
    CacheStore store(storeConfig(dir_));
    plantClaim(store, "key-a", claimText(getpid(), thisHost()));
    EXPECT_EQ(store.claim("key-a"), CacheStore::Claim::Won);
    store.releaseClaim("key-a");
    EXPECT_EQ(countClaims(dir_), 0u);
}

TEST_F(CacheStoreTest, OtherHostClaimIsIgnored)
{
    // pid 1 is alive here, but the claim names another host: it is
    // neither waited on nor taken over.
    CacheStore store(storeConfig(dir_));
    const std::string foreign = claimText(1, thisHost() + "-elsewhere");
    plantClaim(store, "key-a", foreign);
    EXPECT_EQ(store.claim("key-a"), CacheStore::Claim::Unclaimed);
    store.releaseClaim("key-a");
    EXPECT_EQ(slurp(store.claimPath("key-a")), foreign);
}

SimOptions
tinyRun()
{
    SimOptions opt;
    opt.benchmark = "gzip";
    opt.scheme = "baseline";
    opt.warmupInsts = 500;
    opt.runInsts = 5000;
    return opt;
}

TEST_F(CacheStoreTest, CampaignRunsReleaseTheirClaims)
{
    CampaignConfig cfg;
    cfg.jobs = 2;
    cfg.cacheDir = dir_;
    cfg.maxRetries = 0;
    std::vector<SimOptions> runs;
    for (const char *bench : {"gzip", "swim"}) {
        SimOptions opt = tinyRun();
        opt.benchmark = bench;
        runs.push_back(opt);
    }

    // Failed runs release the claim they simulated under...
    FaultSpec spec;
    spec.runThrowP = 1.0;
    FaultInjector::global().configure(spec);
    {
        CampaignRunner runner(cfg);
        const CampaignResult cr = runner.runChecked(runs);
        FaultInjector::global().configure({});
        EXPECT_EQ(runner.lastStats().failed, runs.size());
    }
    ASSERT_TRUE(fs::exists(dir_)); // the claims created it
    EXPECT_EQ(countClaims(dir_), 0u);

    // ...and so do successful ones, after publishing the entry.
    CampaignRunner runner(cfg);
    EXPECT_TRUE(runner.runChecked(runs).allOk());
    EXPECT_EQ(runner.lastStats().simulated, runs.size());
    EXPECT_EQ(countClaims(dir_), 0u);
    EXPECT_EQ(countEntries(dir_), runs.size());
}

TEST_F(CacheStoreTest, DeferredRunSimulatesPastItsTimeout)
{
    // A live holder that never finishes (a paused child) cannot stall
    // a run that has a timeout: past it, the waiter simulates itself.
    const pid_t holder = fork();
    ASSERT_GE(holder, 0);
    if (holder == 0) {
        pause();
        _exit(0);
    }
    SimOptions opt = tinyRun();
    opt.timeoutMs = 300; // not part of the cache key
    CacheStore store(storeConfig(dir_));
    const std::string held = claimText(holder, thisHost());
    plantClaim(store, cacheKey(opt), held);

    CampaignConfig cfg;
    cfg.jobs = 1;
    cfg.cacheDir = dir_;
    CampaignRunner runner(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    const CampaignResult cr = runner.runChecked({opt});
    const auto waited = std::chrono::steady_clock::now() - t0;
    kill(holder, SIGKILL);
    waitpid(holder, nullptr, 0);

    EXPECT_TRUE(cr.allOk());
    EXPECT_EQ(runner.lastStats().simulated, 1u);
    EXPECT_GE(waited, std::chrono::milliseconds(300));
    // The holder's claim is not the waiter's to remove.
    EXPECT_EQ(slurp(store.claimPath(cacheKey(opt))), held);
}

TEST_F(CacheStoreTest, DeferredRunSkipsOnInterrupt)
{
    // The parent holds the claim; the child's campaign waits on it
    // until an interrupt request turns the run into a skip. Forked,
    // because the interrupt flag is process-wide and one-way.
    const SimOptions opt = tinyRun();
    CacheStore store(storeConfig(dir_));
    ASSERT_EQ(store.claim(cacheKey(opt)), CacheStore::Claim::Won);
    const std::string dir = dir_;
    EXPECT_EQ(runForked([&] {
                  std::thread stopper([] {
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(200));
                      requestCampaignInterrupt();
                  });
                  CampaignConfig cfg;
                  cfg.jobs = 1;
                  cfg.cacheDir = dir;
                  CampaignRunner runner(cfg);
                  const CampaignResult cr = runner.runChecked({opt});
                  stopper.join();
                  _exit(cr.outcomes[0].status == RunStatus::Skipped
                            ? 0 : 1);
              }),
              0);
    store.releaseClaim(cacheKey(opt));
    EXPECT_EQ(countClaims(dir_), 0u);
}

TEST_F(CacheStoreTest, ClaimsAreNotEntries)
{
    {
        CacheStore store(storeConfig(dir_));
        ASSERT_EQ(store.claim("key-a"), CacheStore::Claim::Won);
        store.store("key-b", "payload-b");
        EXPECT_EQ(store.liveEntries(), 1u);
        // Left held, as by a process killed mid-simulation.
    }

    CacheStore fresh(storeConfig(dir_));
    EXPECT_EQ(fresh.liveEntries(), 1u);
    EXPECT_EQ(fresh.stats().quarantined, 0u);
    EXPECT_TRUE(fs::exists(fresh.claimPath("key-a")));
    EXPECT_FALSE(fs::exists(fs::path(dir_) / "quarantine"));
}

} // namespace
} // namespace dmdc
