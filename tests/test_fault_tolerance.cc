/**
 * @file
 * Tests of the fault-tolerance layer: structured errors and option
 * validation, the deterministic fault injector, per-run isolation and
 * retries in the campaign engine, watchdog timeouts, cache corruption
 * handling (quarantine + recompute, for bad framing and for bad
 * payloads), the quarantine cap, and rerunning an interrupted
 * campaign to a bit-identical journal.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/json.hh"
#include "sim/campaign_runner.hh"
#include "sim/fault_injector.hh"
#include "sim/run_error.hh"
#include "sim/simulator.hh"

namespace dmdc
{
namespace
{

namespace fs = std::filesystem;

SimOptions
quickOptions(const std::string &bench, const std::string &scheme)
{
    SimOptions opt;
    opt.benchmark = bench;
    opt.scheme = scheme;
    opt.warmupInsts = 2000;
    opt.runInsts = 20000;
    return opt;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream is(path);
    std::stringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

std::size_t
countFiles(const fs::path &dir, const char *ext = ".json")
{
    std::size_t n = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        if (de.is_regular_file() && de.path().extension() == ext)
            ++n;
    }
    return n;
}

/** The single cache entry in @p dir (fails the test if not single). */
fs::path
soleCacheEntry(const fs::path &dir)
{
    fs::path found;
    for (const auto &de : fs::directory_iterator(dir)) {
        if (de.is_regular_file() && de.path().extension() == ".json") {
            EXPECT_TRUE(found.empty()) << "more than one cache entry";
            found = de.path();
        }
    }
    EXPECT_FALSE(found.empty()) << "no cache entry in " << dir;
    return found;
}

/**
 * Every test gets a scratch directory and leaves the process-global
 * injector disabled behind it.
 */
class FaultTolerance : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        scratch_ = fs::temp_directory_path() /
            ("dmdc_ft_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()));
        fs::remove_all(scratch_);
        fs::create_directories(scratch_);
        FaultInjector::global().configure({});
    }

    void
    TearDown() override
    {
        FaultInjector::global().configure({});
        fs::remove_all(scratch_);
    }

    CampaignConfig
    cachedConfig() const
    {
        CampaignConfig cfg;
        cfg.cacheDir = (scratch_ / "cache").string();
        return cfg;
    }

    fs::path scratch_;
};

// ---- fault spec parsing ----------------------------------------------

TEST(FaultSpecParse, FullSpecification)
{
    const FaultSpec spec = parseFaultSpec(
        "cache-corrupt:p=0.1,run-throw:p=0.05,run-hang:p=0.01,seed=42");
    EXPECT_DOUBLE_EQ(spec.cacheCorruptP, 0.1);
    EXPECT_DOUBLE_EQ(spec.runThrowP, 0.05);
    EXPECT_DOUBLE_EQ(spec.runHangP, 0.01);
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_TRUE(spec.any());
}

TEST(FaultSpecParse, EmptyDisables)
{
    EXPECT_FALSE(parseFaultSpec("").any());
}

TEST(FaultSpecParse, RejectsUnknownSite)
{
    try {
        (void)parseFaultSpec("disk-on-fire:p=0.5");
        FAIL() << "expected RunError";
    } catch (const RunError &e) {
        EXPECT_EQ(e.category(), RunErrorCategory::Config);
    }
}

TEST(FaultSpecParse, RejectsRetiredSites)
{
    // The three sites of the retired campaign daemon are unknown now,
    // not silently accepted. (Assembled from pieces so a search of the
    // tree for the retired names finds only the change log.)
    for (const std::string &site :
         {std::string("serve") + "-crash",
          std::string("frame") + "-truncate",
          std::string("client") + "-stall"}) {
        try {
            (void)parseFaultSpec(site + ":p=1");
            ADD_FAILURE() << site << ": expected RunError";
        } catch (const RunError &e) {
            EXPECT_EQ(e.category(), RunErrorCategory::Config);
            EXPECT_NE(std::string(e.what()).find(
                          "(sites: cache-corrupt, run-throw, run-hang, "
                          "worker-crash, lsq-corrupt)"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(FaultSpecParse, RejectsBadProbability)
{
    EXPECT_THROW((void)parseFaultSpec("run-throw:p=1.5"), RunError);
    EXPECT_THROW((void)parseFaultSpec("run-throw:p=-0.1"), RunError);
    EXPECT_THROW((void)parseFaultSpec("run-throw:p=banana"), RunError);
    EXPECT_THROW((void)parseFaultSpec("run-throw"), RunError);
}

// ---- injector determinism --------------------------------------------

TEST_F(FaultTolerance, InjectorDecisionsAreDeterministic)
{
    FaultSpec spec;
    spec.runThrowP = 0.5;
    spec.seed = 9;
    FaultInjector::global().configure(spec);
    const FaultInjector &inj = FaultInjector::global();

    // Same (key, attempt) -> same answer, every time.
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(inj.injectRunThrow("k1", 0),
                  inj.injectRunThrow("k1", 0));
        EXPECT_EQ(inj.injectRunHang("k1"), inj.injectRunHang("k1"));
    }
    // Decisions vary across keys/attempts at p=0.5 (not stuck).
    bool saw_true = false, saw_false = false;
    for (int i = 0; i < 64; ++i) {
        const bool d = inj.injectRunThrow("key" + std::to_string(i), 0);
        (d ? saw_true : saw_false) = true;
    }
    EXPECT_TRUE(saw_true);
    EXPECT_TRUE(saw_false);
}

TEST_F(FaultTolerance, InjectorProbabilityEndpoints)
{
    FaultSpec spec;
    spec.runThrowP = 1.0;
    FaultInjector::global().configure(spec);
    EXPECT_TRUE(FaultInjector::global().injectRunThrow("x", 0));
    EXPECT_FALSE(FaultInjector::global().injectRunHang("x"));
    spec.runThrowP = 0.0;
    FaultInjector::global().configure(spec);
    EXPECT_FALSE(FaultInjector::global().injectRunThrow("x", 0));
}

// ---- option validation -----------------------------------------------

TEST_F(FaultTolerance, ValidationRejectsBadOptions)
{
    auto expect_config_error = [](SimOptions opt, const char *what) {
        try {
            validateSimOptions(opt);
            FAIL() << "expected RunError for " << what;
        } catch (const RunError &e) {
            EXPECT_EQ(e.category(), RunErrorCategory::Config) << what;
            EXPECT_FALSE(e.transient()) << what;
        }
    };
    SimOptions good = quickOptions("gzip", "dmdc-global");
    EXPECT_NO_THROW(validateSimOptions(good));

    SimOptions opt = good;
    opt.benchmark = "no-such-bench";
    expect_config_error(opt, "unknown benchmark");
    opt = good;
    opt.scheme = "no-such-scheme";
    expect_config_error(opt, "unknown scheme");
    opt = good;
    opt.configLevel = 7;
    expect_config_error(opt, "bad config level");
    opt = good;
    opt.runInsts = 0;
    expect_config_error(opt, "zero instructions");
    opt = good;
    opt.numYlaQw = 3;
    expect_config_error(opt, "non-power-of-two YLA count");
    opt = good;
    opt.tableEntriesOverride = 100;
    expect_config_error(opt, "non-power-of-two table");
    opt = good;
    opt.queueEntries = 0;
    expect_config_error(opt, "zero queue entries");
    opt = good;
    opt.invalidationsPer1kCycles = -1.0;
    expect_config_error(opt, "negative invalidation rate");
    opt = good;
    opt.timeoutMs = -5.0;
    expect_config_error(opt, "negative timeout");
}

// ---- run isolation ---------------------------------------------------

TEST_F(FaultTolerance, RunCheckedCapturesFailuresWithoutAborting)
{
    FaultSpec spec;
    spec.runThrowP = 1.0;
    FaultInjector::global().configure(spec);

    CampaignConfig cfg = cachedConfig();
    cfg.useCache = false;
    cfg.maxRetries = 0;
    CampaignRunner runner(cfg);
    const std::vector<SimOptions> runs = {
        quickOptions("gzip", "baseline"),
        quickOptions("swim", "yla"),
    };
    const CampaignResult cr = runner.runChecked(runs);
    ASSERT_EQ(cr.outcomes.size(), 2u);
    EXPECT_FALSE(cr.allOk());
    for (const RunOutcome &oc : cr.outcomes) {
        EXPECT_EQ(oc.status, RunStatus::Failed);
        EXPECT_EQ(oc.category, RunErrorCategory::SimInvariant);
        EXPECT_EQ(oc.attempts, 1u);
        EXPECT_NE(oc.error.find("run-throw"), std::string::npos);
    }
    EXPECT_EQ(runner.lastStats().failed, 2u);
}

TEST_F(FaultTolerance, BadRunDegradesGoodCampaign)
{
    CampaignConfig cfg = cachedConfig();
    cfg.useCache = false;
    CampaignRunner runner(cfg);
    std::vector<SimOptions> runs = {
        quickOptions("gzip", "baseline"),
        quickOptions("gzip", "baseline"),
    };
    runs[1].configLevel = 9; // config error at Simulator construction
    const CampaignResult cr = runner.runChecked(runs);
    EXPECT_EQ(cr.outcomes[0].status, RunStatus::Ok);
    EXPECT_GT(cr.results[0].instructions, 0u);
    EXPECT_EQ(cr.outcomes[1].status, RunStatus::Failed);
    EXPECT_EQ(cr.outcomes[1].category, RunErrorCategory::Config);
    // Config errors are not transient: no retries burned.
    EXPECT_EQ(cr.outcomes[1].attempts, 1u);
}

TEST_F(FaultTolerance, RunCheckedNamesADegradedSlot)
{
    // The runner alone names a failed slot, so any caller can label
    // its row and keep it out of aggregates.
    CampaignConfig cfg = cachedConfig();
    cfg.useCache = false;
    CampaignRunner runner(cfg);
    SimOptions opt = quickOptions("swim", "dmdc-global");
    opt.configLevel = 9;
    const CampaignResult cr = runner.runChecked({opt});
    ASSERT_EQ(cr.outcomes[0].status, RunStatus::Failed);
    const SimResult &r = cr.results[0];
    EXPECT_FALSE(r.valid);
    EXPECT_EQ(r.benchmark, "swim");
    EXPECT_EQ(r.scheme, "dmdc-global");
    EXPECT_EQ(r.configLevel, 9u);
    EXPECT_TRUE(r.fp);
    EXPECT_EQ(r.instructions, 0u);
}

TEST_F(FaultTolerance, TransientFailuresRetryPredictably)
{
    FaultSpec spec;
    spec.runThrowP = 0.5;
    spec.seed = 1234;
    FaultInjector::global().configure(spec);

    CampaignConfig cfg = cachedConfig();
    cfg.useCache = false;
    cfg.maxRetries = 4;
    CampaignRunner runner(cfg);
    const std::vector<SimOptions> runs = {
        quickOptions("gzip", "baseline"),
        quickOptions("swim", "baseline"),
        quickOptions("vpr", "baseline"),
        quickOptions("gcc", "baseline"),
    };
    const CampaignResult cr = runner.runChecked(runs);

    // The injector is a pure function, so the expected attempt count
    // of every run is computable up front.
    const FaultInjector &inj = FaultInjector::global();
    for (std::size_t i = 0; i < runs.size(); ++i) {
        unsigned expected_attempts = 0;
        bool expected_ok = false;
        for (unsigned a = 0; a <= cfg.maxRetries; ++a) {
            ++expected_attempts;
            if (!inj.injectRunThrow(runIdentity(runs[i]), a)) {
                expected_ok = true;
                break;
            }
        }
        EXPECT_EQ(cr.outcomes[i].attempts, expected_attempts);
        EXPECT_EQ(cr.outcomes[i].ok(), expected_ok);
    }
}

TEST_F(FaultTolerance, FailFastSkipsLaterRuns)
{
    FaultSpec spec;
    spec.runThrowP = 1.0;
    FaultInjector::global().configure(spec);

    CampaignConfig cfg = cachedConfig();
    cfg.useCache = false;
    cfg.maxRetries = 0;
    cfg.failFast = true;
    cfg.jobs = 1; // serial: deterministic skip set
    CampaignRunner runner(cfg);
    const std::vector<SimOptions> runs = {
        quickOptions("gzip", "baseline"),
        quickOptions("swim", "baseline"),
        quickOptions("vpr", "baseline"),
    };
    const CampaignResult cr = runner.runChecked(runs);
    EXPECT_EQ(cr.outcomes[0].status, RunStatus::Failed);
    EXPECT_EQ(cr.outcomes[1].status, RunStatus::Skipped);
    EXPECT_EQ(cr.outcomes[2].status, RunStatus::Skipped);
    EXPECT_EQ(runner.lastStats().skipped, 2u);
}

// ---- watchdogs -------------------------------------------------------

TEST_F(FaultTolerance, InjectedHangBecomesTimeout)
{
    FaultSpec spec;
    spec.runHangP = 1.0;
    FaultInjector::global().configure(spec);

    SimOptions opt = quickOptions("gzip", "baseline");
    opt.stallCycleLimit = 2000; // keep the spin cheap
    try {
        (void)runSimulation(opt);
        FAIL() << "expected RunError(Timeout)";
    } catch (const RunError &e) {
        EXPECT_EQ(e.category(), RunErrorCategory::Timeout);
        EXPECT_NE(std::string(e.what()).find("run-hang"),
                  std::string::npos);
    }
}

TEST_F(FaultTolerance, HangSurfacesAsTimedOutOutcome)
{
    FaultSpec spec;
    spec.runHangP = 1.0;
    FaultInjector::global().configure(spec);

    CampaignConfig cfg = cachedConfig();
    cfg.useCache = false;
    cfg.maxRetries = 0;
    CampaignRunner runner(cfg);
    SimOptions opt = quickOptions("gzip", "baseline");
    opt.stallCycleLimit = 2000;
    const CampaignResult cr = runner.runChecked({opt});
    EXPECT_EQ(cr.outcomes[0].status, RunStatus::TimedOut);
    EXPECT_EQ(cr.outcomes[0].category, RunErrorCategory::Timeout);
    EXPECT_EQ(runner.lastStats().timedOut, 1u);
}

TEST_F(FaultTolerance, RunHangSplitsASweepOfOneTriple)
{
    // The run-hang site keys on the whole run identity, so runs that
    // share (benchmark, scheme, config) and differ only in their
    // invalidation rate get independent decisions.
    std::vector<SimOptions> runs;
    for (double rate : {0.0, 1.0, 5.0, 10.0, 20.0, 50.0}) {
        SimOptions opt = quickOptions("gzip", "dmdc-global");
        opt.coherence = true;
        opt.invalidationsPer1kCycles = rate;
        opt.stallCycleLimit = 2000; // keep the spin cheap
        runs.push_back(opt);
    }
    FaultSpec spec;
    spec.runHangP = 0.5;
    std::vector<bool> hangs;
    std::size_t n_hang = 0;
    for (spec.seed = 0;; ++spec.seed) {
        FaultInjector::global().configure(spec);
        hangs.clear();
        n_hang = 0;
        for (const SimOptions &opt : runs) {
            hangs.push_back(
                FaultInjector::global().injectRunHang(runIdentity(opt)));
            n_hang += hangs.back();
        }
        if (n_hang != 0 && n_hang != runs.size())
            break;
        ASSERT_LT(spec.seed, 64u) << "no seed splits the sweep";
    }

    CampaignConfig cfg = cachedConfig();
    cfg.useCache = false;
    cfg.maxRetries = 0;
    CampaignRunner runner(cfg);
    const CampaignResult cr = runner.runChecked(runs);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        EXPECT_EQ(cr.outcomes[i].status,
                  hangs[i] ? RunStatus::TimedOut : RunStatus::Ok)
            << "rate " << runs[i].invalidationsPer1kCycles;
    }
    EXPECT_EQ(runner.lastStats().timedOut, n_hang);
    FaultInjector::global().configure({});
}

TEST_F(FaultTolerance, WallClockDeadlineFires)
{
    SimOptions opt = quickOptions("gzip", "baseline");
    opt.runInsts = 5000000; // far more work than the budget allows
    opt.timeoutMs = 0.01;
    try {
        (void)runSimulation(opt);
        FAIL() << "expected RunError(Timeout)";
    } catch (const RunError &e) {
        EXPECT_EQ(e.category(), RunErrorCategory::Timeout);
        EXPECT_NE(std::string(e.what()).find("wall-clock"),
                  std::string::npos);
    }
}

// ---- cache robustness ------------------------------------------------

class CacheCorruption : public FaultTolerance
{
  protected:
    /**
     * Populate the cache with one entry, damage it with @p damage,
     * then re-run with a fresh runner (no in-process memo) and verify
     * quarantine + bit-identical recompute.
     */
    void
    roundTrip(const std::function<void(const fs::path &)> &damage)
    {
        const SimOptions opt = quickOptions("gzip", "dmdc-global");
        SimResult reference;
        {
            CampaignRunner runner(cachedConfig());
            reference = runner.runChecked({opt}).results.front();
        }
        const fs::path dir = scratch_ / "cache";
        const fs::path entry = soleCacheEntry(dir);
        damage(entry);

        CampaignRunner runner(cachedConfig());
        const CampaignResult cr = runner.runChecked({opt});
        ASSERT_TRUE(cr.allOk());
        EXPECT_EQ(runner.lastStats().quarantined, 1u);
        EXPECT_EQ(runner.lastStats().simulated, 1u); // recomputed
        EXPECT_EQ(cr.results.front().cycles, reference.cycles);
        EXPECT_EQ(cr.results.front().ipc, reference.ipc);
        // The bad bytes moved to quarantine/ and a good entry took
        // their place.
        EXPECT_EQ(countFiles(dir / "quarantine"), 1u);
        // The rewritten entry must now hit.
        CampaignRunner again(cachedConfig());
        (void)again.runChecked({opt});
        EXPECT_EQ(again.lastStats().diskHits, 1u);
    }
};

TEST_F(CacheCorruption, TruncatedEntryQuarantines)
{
    roundTrip([](const fs::path &entry) {
        const std::string text = slurp(entry);
        std::ofstream os(entry, std::ios::trunc);
        os << text.substr(0, text.size() / 2);
    });
}

TEST_F(CacheCorruption, BitFlipFailsChecksum)
{
    roundTrip([](const fs::path &entry) {
        std::string text = slurp(entry);
        ASSERT_GT(text.size(), 200u);
        // Flip a digit inside the payload, past the header line.
        const std::size_t pos = text.find('\n') + 50;
        text[pos] = text[pos] == '0' ? '1' : '0';
        std::ofstream os(entry, std::ios::trunc);
        os << text;
    });
}

TEST_F(CacheCorruption, WrongVersionQuarantines)
{
    roundTrip([](const fs::path &entry) {
        std::string text = slurp(entry);
        const std::string tag = "{\"dmdc_cache\":";
        ASSERT_EQ(text.rfind(tag, 0), 0u);
        text[tag.size()] = '1'; // pretend an old format version
        std::ofstream os(entry, std::ios::trunc);
        os << text;
    });
}

TEST_F(CacheCorruption, ZeroByteEntryQuarantines)
{
    roundTrip([](const fs::path &entry) {
        std::ofstream os(entry, std::ios::trunc);
    });
}

TEST_F(CacheCorruption, LegacyHeaderlessEntryQuarantines)
{
    roundTrip([](const fs::path &entry) {
        // v2 files were the bare payload with no CRC header.
        const std::string text = slurp(entry);
        std::ofstream os(entry, std::ios::trunc);
        os << text.substr(text.find('\n') + 1);
    });
}

// The cases above are all caught by the store's CRC framing. These two
// publish a correctly framed entry whose payload is bad, so only the
// runner's decode can catch it.

TEST_F(CacheCorruption, UnparsablePayloadQuarantines)
{
    roundTrip([this](const fs::path &) {
        CacheStore store({(scratch_ / "cache").string()});
        store.store(cacheKey(quickOptions("gzip", "dmdc-global")),
                    "not json\n");
    });
}

TEST_F(CacheCorruption, MissingResultFieldQuarantines)
{
    roundTrip([this](const fs::path &) {
        const std::string key =
            cacheKey(quickOptions("gzip", "dmdc-global"));
        CacheStore store({(scratch_ / "cache").string()});
        std::string payload;
        ASSERT_EQ(store.load(key, payload), CacheStore::Load::Hit);
        const std::size_t at = payload.find("\"cycles\":");
        ASSERT_NE(at, std::string::npos);
        payload.erase(at, payload.find(',', at) + 1 - at);
        store.store(key, payload);
    });
}

TEST_F(FaultTolerance, InjectedCacheCorruptionHealsOnReload)
{
    FaultSpec spec;
    spec.cacheCorruptP = 1.0;
    FaultInjector::global().configure(spec);
    const SimOptions opt = quickOptions("swim", "baseline");
    {
        CampaignRunner runner(cachedConfig());
        ASSERT_TRUE(runner.runChecked({opt}).allOk());
    }
    FaultInjector::global().configure({});
    CampaignRunner runner(cachedConfig());
    ASSERT_TRUE(runner.runChecked({opt}).allOk());
    EXPECT_EQ(runner.lastStats().quarantined, 1u);
    EXPECT_EQ(runner.lastStats().simulated, 1u);
}

TEST_F(FaultTolerance, QuarantineCapAgesOutOldestFiles)
{
    const std::vector<SimOptions> runs = {
        quickOptions("gzip", "baseline"),
        quickOptions("swim", "baseline"),
        quickOptions("vpr", "baseline"),
    };
    {
        CampaignRunner runner(cachedConfig());
        ASSERT_TRUE(runner.runChecked(runs).allOk());
    }
    // Damage every cache entry so the next campaign quarantines all
    // three.
    const fs::path dir = scratch_ / "cache";
    for (const auto &de : fs::directory_iterator(dir)) {
        if (!de.is_regular_file() ||
            de.path().extension() != ".json")
            continue;
        std::ofstream os(de.path(), std::ios::trunc);
        os << "ruined";
    }

    CampaignConfig cfg = cachedConfig();
    cfg.quarantineMaxEntries = 1;
    CampaignRunner runner(cfg);
    ASSERT_TRUE(runner.runChecked(runs).allOk());
    EXPECT_EQ(runner.lastStats().quarantined, 3u);
    // The cap held: only the newest corpse survives, the rest aged
    // out oldest-first and were counted.
    EXPECT_LE(countFiles(dir / "quarantine"), 1u);
    EXPECT_GE(runner.lastStats().quarantineEvicted, 2u);

    // A byte cap of 1 clears even that last file on the next
    // quarantine event.
    for (const auto &de : fs::directory_iterator(dir)) {
        if (!de.is_regular_file() ||
            de.path().extension() != ".json")
            continue;
        std::ofstream os(de.path(), std::ios::trunc);
        os << "ruined again";
    }
    CampaignConfig tight = cachedConfig();
    tight.quarantineMaxBytes = 1;
    CampaignRunner again(tight);
    ASSERT_TRUE(again.runChecked(runs).allOk());
    EXPECT_EQ(countFiles(dir / "quarantine"), 0u);
    EXPECT_GE(again.lastStats().quarantineEvicted, 1u);
}

// ---- journals ------------------------------------------------------------

TEST_F(FaultTolerance, OnlyTheFullJournalCarriesTheBuildStamp)
{
    // The build commit is provenance, like the timestamp: the same
    // code built twice must write byte-identical deterministic
    // journals.
    for (const bool deterministic : {true, false}) {
        const std::string path =
            (scratch_ / (deterministic ? "det.json" : "full.json"))
                .string();
        CampaignConfig cfg;
        cfg.useCache = false;
        cfg.journalPath = path;
        cfg.journalDeterministic = deterministic;
        CampaignRunner runner(cfg);
        ASSERT_TRUE(
            runner.runChecked({quickOptions("gzip", "baseline")}).allOk());

        JsonValue doc;
        std::string err;
        ASSERT_TRUE(parseJson(slurp(path), doc, err)) << err;
        ASSERT_NE(doc.find("version"), nullptr);
        EXPECT_EQ(doc.find("version")->text,
                  std::to_string(kJournalFormatVersion));
        EXPECT_EQ(doc.find("commit") != nullptr, !deterministic);
        EXPECT_EQ(doc.find("generated_utc") != nullptr, !deterministic);
    }
}

// ---- interrupted campaigns ---------------------------------------------

TEST_F(FaultTolerance, RerunAfterFailuresMatchesUninterruptedRunBitForBit)
{
    // No checkpoint manifest: the journal names every casualty and the
    // cache holds every survivor, so rerunning the same campaign is
    // the whole resume protocol.
    const std::vector<SimOptions> runs = {
        quickOptions("gzip", "baseline"),
        quickOptions("gzip", "yla"),
        quickOptions("swim", "baseline"),
        quickOptions("swim", "yla"),
    };
    const std::string ref_path = (scratch_ / "ref.json").string();
    const std::string int_path = (scratch_ / "int.json").string();
    const std::string res_path = (scratch_ / "res.json").string();

    // Reference: uninterrupted serial campaign.
    {
        CampaignConfig cfg;
        cfg.cacheDir = (scratch_ / "cache_ref").string();
        cfg.jobs = 1;
        cfg.journalPath = ref_path;
        cfg.journalDeterministic = true;
        CampaignRunner runner(cfg);
        ASSERT_TRUE(runner.runChecked(runs).allOk());
    }

    // Interrupted: chaos kills some runs mid-campaign.
    std::size_t ok_runs = 0;
    {
        FaultSpec spec;
        spec.runThrowP = 0.5;
        spec.seed = 5;
        FaultInjector::global().configure(spec);
        CampaignConfig cfg;
        cfg.cacheDir = (scratch_ / "cache_res").string();
        cfg.maxRetries = 0;
        cfg.journalPath = int_path;
        cfg.journalDeterministic = true;
        CampaignRunner runner(cfg);
        const CampaignResult cr = runner.runChecked(runs);
        FaultInjector::global().configure({});
        // A mixed outcome exercises both halves of the rerun: served
        // from cache for the survivors, fresh execution for the
        // casualties.
        for (const RunOutcome &oc : cr.outcomes)
            ok_runs += oc.ok();
        ASSERT_FALSE(cr.allOk()) << "chaos seed produced no failures; "
                                    "pick another seed";
        ASSERT_GT(ok_runs, 0u) << "chaos seed killed every run; "
                                  "pick another seed";
    }

    // The interrupted journal is the failure manifest: one record per
    // run, each casualty named with its status.
    JsonValue interrupted;
    std::string err;
    ASSERT_TRUE(parseJson(slurp(int_path), interrupted, err)) << err;
    const JsonValue *records = interrupted.find("results");
    ASSERT_NE(records, nullptr);
    ASSERT_EQ(records->items.size(), runs.size());
    std::size_t failed_records = 0;
    for (const JsonValue &r : records->items) {
        const JsonValue *status = r.find("status");
        ASSERT_NE(status, nullptr);
        failed_records += status->text == runStatusName(RunStatus::Failed);
    }
    EXPECT_EQ(failed_records, runs.size() - ok_runs);

    // Rerun: completed runs come from the cache, the rest execute.
    {
        CampaignConfig cfg;
        cfg.cacheDir = (scratch_ / "cache_res").string();
        cfg.journalPath = res_path;
        cfg.journalDeterministic = true;
        CampaignRunner runner(cfg);
        ASSERT_TRUE(runner.runChecked(runs).allOk());
        EXPECT_EQ(runner.lastStats().diskHits, ok_runs);
        EXPECT_EQ(runner.lastStats().simulated, runs.size() - ok_runs);
    }

    const std::string ref = slurp(ref_path);
    const std::string res = slurp(res_path);
    ASSERT_FALSE(ref.empty());
    EXPECT_EQ(ref, res);
}

} // namespace
} // namespace dmdc
