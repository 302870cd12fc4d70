/**
 * @file
 * Unit tests for the common infrastructure: bit utilities, RNG,
 * statistics, log output, the JSON parser, CRC-32 and the durability
 * layer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/bitutils.hh"
#include "common/crc32.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "trace/spec_suite.hh"

namespace dmdc
{
namespace
{

TEST(BitUtils, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(BitUtils, FloorCeilLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(BitUtils, BitsAndMask)
{
    EXPECT_EQ(bits(0xff00, 15, 8), 0xffull);
    EXPECT_EQ(bits(0xabcd, 3, 0), 0xdull);
    EXPECT_EQ(mask(0), 0ull);
    EXPECT_EQ(mask(8), 0xffull);
    EXPECT_EQ(mask(64), ~0ull);
}

TEST(BitUtils, FoldXorCoversWidth)
{
    // Folding must stay within the requested width.
    for (unsigned width = 3; width <= 16; ++width) {
        for (std::uint64_t v : {0ull, 1ull, 0xdeadbeefcafeull,
                                ~0ull}) {
            EXPECT_LT(foldXor(v, width), 1ull << width);
        }
    }
    // Values differing only above the fold width still hash
    // differently in general.
    EXPECT_NE(foldXor(0x1000, 8), foldXor(0x2000, 8));
}

TEST(RangesOverlap, Basic)
{
    EXPECT_TRUE(rangesOverlap(0, 4, 0, 4));
    EXPECT_TRUE(rangesOverlap(0, 8, 4, 4));
    EXPECT_TRUE(rangesOverlap(4, 4, 0, 8));
    EXPECT_FALSE(rangesOverlap(0, 4, 4, 4));
    EXPECT_FALSE(rangesOverlap(8, 8, 0, 8));
    EXPECT_TRUE(rangesOverlap(7, 1, 0, 8));
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, RangeBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.range(17), 17u);
}

TEST(Rng, UniformIsInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, GeometricMeanApproximation)
{
    Rng rng(13);
    double sum = 0;
    constexpr int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.geometric(8.0);
    EXPECT_NEAR(sum / n, 8.0, 1.0);
    // Mean <= 1 degenerates to the constant 1.
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.geometric(0.5), 1u);
}

TEST(Rng, MixHashIsStable)
{
    EXPECT_EQ(mixHash(12345), mixHash(12345));
    EXPECT_NE(mixHash(12345), mixHash(12346));
}

/**
 * Literal outputs of the hashes and the generator. The synthetic
 * streams are built from Rng and mixHash, and hashBytes keys the run
 * cache, so none of these may move.
 */
TEST(Rng, OutputsArePinned)
{
    std::uint64_t state = 0;
    EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafull);
    EXPECT_EQ(splitmix64(state), 0x6e789e6aa1b965f4ull);
    EXPECT_EQ(state, 0x3c6ef372fe94f82aull);
    EXPECT_EQ(mixHash(12345), 0x22118258a9d111a0ull);
    EXPECT_EQ(hashBytes("dmdc", 4), 0xd4f216c1b6d739c1ull);
    Rng rng(1);
    EXPECT_EQ(rng.next(), 0xb3f2af6d0fc710c5ull);
    EXPECT_EQ(rng.next(), 0x853b559647364ceaull);
    EXPECT_EQ(rng.next(), 0x92f89756082a4514ull);
    EXPECT_EQ(rng.next(), 0x642e1c7bc266a3a7ull);
}

/**
 * Every mean the workload generator samples through a table: the
 * fixed 1.5 / 2.0 / 4.0 and each distinct depDistMean of the suite.
 */
std::vector<double>
generatorMeans()
{
    std::set<double> means = {1.5, 2.0, 4.0};
    for (const auto &name : specAllNames())
        means.insert(specParams(name).depDistMean);
    return {means.begin(), means.end()};
}

TEST(GeometricTable, ThresholdsAreExactFormulaBoundaries)
{
    for (const double mean : generatorMeans()) {
        const GeometricTable table(mean);
        const auto &t = table.thresholds();
        ASSERT_GE(t.size(), 3u) << mean;
        EXPECT_EQ(t.front(), 0u) << mean;
        EXPECT_EQ(t.back(), 1ull << 53) << mean;
        // The top draw reaches the last real entry's value exactly.
        EXPECT_EQ(Rng::geometricOfDraw(mean, (1ull << 53) - 1),
                  t.size() - 1) << mean;
        for (std::size_t k = 1; k + 1 < t.size(); ++k) {
            EXPECT_LT(Rng::geometricOfDraw(mean, t[k] - 1), k + 1)
                << "mean " << mean << " k " << k;
            EXPECT_GE(Rng::geometricOfDraw(mean, t[k]), k + 1)
                << "mean " << mean << " k " << k;
        }
    }
}

TEST(GeometricTable, LockstepDrawsMatchTheFormula)
{
    for (const double mean : generatorMeans()) {
        const GeometricTable table(mean);
        Rng a(static_cast<std::uint64_t>(mean * 1000));
        Rng b(static_cast<std::uint64_t>(mean * 1000));
        unsigned mismatches = 0;
        for (int i = 0; i < 1000000; ++i)
            mismatches += table.sample(a) != b.geometric(mean);
        EXPECT_EQ(mismatches, 0u) << mean;
        EXPECT_EQ(a.next(), b.next()) << mean;
    }
}

TEST(GeometricTable, BucketStartsMatchTheFormula)
{
    // sampleOfDraw() starts each scan at its bucket's first sample;
    // check that start at every bucket's first draw, and the scan's
    // finish on both sides of every threshold.
    for (const double mean : generatorMeans()) {
        const GeometricTable table(mean);
        for (std::uint64_t b = 0; b < (1u << GeometricTable::bucketBits);
             ++b) {
            const std::uint64_t draw = b << GeometricTable::bucketShift;
            EXPECT_EQ(table.sampleOfDraw(draw),
                      Rng::geometricOfDraw(mean, draw))
                << "mean " << mean << " bucket " << b;
        }
        const auto &t = table.thresholds();
        for (std::size_t k = 1; k + 1 < t.size(); ++k) {
            for (const std::uint64_t draw : {t[k] - 1, t[k]}) {
                EXPECT_EQ(table.sampleOfDraw(draw),
                          Rng::geometricOfDraw(mean, draw))
                    << "mean " << mean << " draw " << draw;
            }
        }
    }
}

TEST(GeometricTable, MeanAtMostOneDrawsNothing)
{
    for (const double mean : {0.5, 1.0}) {
        const GeometricTable table(mean);
        EXPECT_TRUE(table.thresholds().empty());
        Rng a(3);
        Rng b(3);
        for (int i = 0; i < 100; ++i)
            EXPECT_EQ(table.sample(a), 1u);
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(GeometricTable, ForMeanIsOneSharedTablePerMean)
{
    // Workloads are built on campaign worker threads concurrently.
    std::vector<const GeometricTable *> seen(8, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < seen.size(); ++i) {
        threads.emplace_back([&seen, i] {
            seen[i] = &GeometricTable::forMean(i % 2 ? 3.25 : 2.75);
        });
    }
    for (auto &t : threads)
        t.join();
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], seen[i % 2]) << i;
    EXPECT_NE(seen[0], seen[1]);
    EXPECT_EQ(seen[0]->thresholds(), GeometricTable(2.75).thresholds());
}

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 10;
    EXPECT_EQ(c.value(), 11u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageTracksMinMaxMean)
{
    Average a;
    a.sample(2.0);
    a.sample(4.0);
    a.sample(9.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Stats, GroupResetAndDump)
{
    StatGroup root("root");
    StatGroup child("child");
    Counter c;
    Average a;
    root.regCounter("events", &c, "test counter");
    child.regAverage("metric", &a);
    root.addChild(&child);

    c += 5;
    a.sample(1.0);
    root.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(a.count(), 0u);

    c += 3;
    a.sample(2.0);
    std::ostringstream os;
    root.dump(os);
    // One line per stat, the child's nested under its header; the
    // registered counter reads back its value through the dump.
    std::ostringstream want;
    want << "[root]\n"
         << "  " << std::left << std::setw(32) << "events"
         << " 3   # test counter\n"
         << "  [child]\n"
         << "    " << std::left << std::setw(32) << "metric"
         << " mean=2 min=2 max=2 n=1\n";
    EXPECT_EQ(os.str(), want.str());
}

TEST(Logging, WarnWritesOneLineToStderr)
{
    testing::internal::CaptureStderr();
    warn("test warning %d", 1);
    inform("%s", std::string(600, 'x').c_str()); // past the stack buffer
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "warn: test warning 1\ninfo: " + std::string(600, 'x') +
                  "\n");
}

// ---- JSON ------------------------------------------------------------

TEST(Json, EscapedStringsSurviveParsing)
{
    const std::string nasty =
        "line1\nline2\ttab \"quoted\" back\\slash \x01 control";
    const std::string doc = "{\"s\":\"" + jsonEscapeString(nasty) +
                            "\"}";
    JsonValue root;
    std::string err;
    ASSERT_TRUE(parseJson(doc, root, err)) << err;
    const JsonValue *s = root.find("s");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->text, nasty);
}

TEST(Json, NonFiniteTokensParseAsRawNumbers)
{
    // Exactly the spellings "%.17g" gives non-finite doubles.
    for (const char *token : {"nan", "-nan", "inf", "-inf"}) {
        JsonValue v;
        std::string err;
        ASSERT_TRUE(parseJson(std::string("{\"x\":[") + token + "]}",
                              v, err))
            << token << ": " << err;
        const JsonValue *x = v.find("x");
        ASSERT_NE(x, nullptr);
        ASSERT_EQ(x->items.size(), 1u);
        EXPECT_EQ(x->items[0].kind, JsonValue::Kind::Number) << token;
        EXPECT_EQ(x->items[0].text, token);
    }
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson("-inf", v, err)) << err;
    EXPECT_EQ(v.text, "-inf");
}

TEST(Json, RejectsNearMissNonFiniteTokens)
{
    for (const char *text :
         {"nan1", "infinity", "-", "+inf", "Nan", "{\"x\":nan1}",
          "{\"x\":infinity}", "{\"x\":-}", "[-nanx]", "nul"}) {
        JsonValue v;
        std::string err;
        EXPECT_FALSE(parseJson(text, v, err)) << text;
        EXPECT_FALSE(err.empty()) << text;
    }
    // "null" still parses as null, not as a near-miss "nan".
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson("null", v, err)) << err;
    EXPECT_EQ(v.kind, JsonValue::Kind::Null);
}

TEST(Json, RejectsLeadingPlus)
{
    // JSON numbers take only a leading '-'; no writer emits '+'.
    for (const char *text :
         {"+5", "+0", "-+5", "[+1]", "{\"x\":+5}", "{\"x\":+1.5e3}"}) {
        JsonValue v;
        std::string err;
        EXPECT_FALSE(parseJson(text, v, err)) << text;
        EXPECT_FALSE(err.empty()) << text;
    }
    // An exponent's sign is still a sign.
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson("[-5,1e+5,2E-3]", v, err)) << err;
    ASSERT_EQ(v.items.size(), 3u);
    EXPECT_EQ(v.items[1].text, "1e+5");
}

TEST(Json, NumbersFollowTheJsonGrammar)
{
    for (const char *text :
         {"1-2", "--1", "1e", ".5", "e5", "01", "1.", "-", "[1-2]",
          "[01]", "{\"ipc\":1-2}", "1e+", "-.5", "1.5.5", "0x1"}) {
        JsonValue v;
        std::string err;
        EXPECT_FALSE(parseJson(text, v, err)) << text;
        EXPECT_FALSE(err.empty()) << text;
    }
    for (const char *text :
         {"0", "-0.5e+3", "1E5", "nan", "-nan", "inf", "-inf", "10",
          "-0", "2.50", "1e-07"}) {
        JsonValue v;
        std::string err;
        ASSERT_TRUE(parseJson(text, v, err)) << text << ": " << err;
        EXPECT_EQ(v.kind, JsonValue::Kind::Number) << text;
        EXPECT_EQ(v.text, text);
    }
}

TEST(Json, RejectsRawControlCharactersInStrings)
{
    // jsonEscapeString() escapes every byte below 0x20, so only a
    // hand-edited or damaged document holds one raw.
    for (const char *text :
         {"\"a\tb\"", "\"a\nb\"", "\"\x01\"", "{\"run\":\"x\ty\"}",
          "{\"k\x1f\":1}", "[\"\r\"]"}) {
        JsonValue v;
        std::string err;
        EXPECT_FALSE(parseJson(text, v, err)) << text;
        EXPECT_NE(err.find("control character"), std::string::npos)
            << text << ": " << err;
    }
    // Escaped, the same characters parse; whitespace between tokens
    // is still whitespace.
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson("{\t\"run\":\n\"x\\ty\"}", v, err)) << err;
    EXPECT_EQ(v.find("run")->text, "x\ty");
}

TEST(Json, NestingIsBounded)
{
    auto nested = [](unsigned depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(nested(256), v, err)) << err;
    EXPECT_FALSE(parseJson(nested(257), v, err));
    EXPECT_NE(err.find("nesting"), std::string::npos) << err;
    // A deep hostile document is an error, not a stack overflow.
    EXPECT_FALSE(parseJson(nested(100000), v, err));
    EXPECT_NE(err.find("nesting"), std::string::npos) << err;

    // Objects count toward the same bound.
    std::string objects;
    for (int i = 0; i < 300; ++i)
        objects += "{\"k\":";
    objects += "1" + std::string(300, '}');
    EXPECT_FALSE(parseJson(objects, v, err));
    EXPECT_NE(err.find("nesting"), std::string::npos) << err;

    // Depth is nesting, not the count of containers: many siblings
    // at one level parse.
    std::string wide = "[";
    for (int i = 0; i < 1000; ++i)
        wide += i ? ",[[]]" : "[[]]";
    wide += "]";
    ASSERT_TRUE(parseJson(wide, v, err)) << err;
    EXPECT_EQ(v.items.size(), 1000u);
}

// ---- CRC-32 ----------------------------------------------------------

/** Bit-at-a-time CRC-32 (reflected 0xEDB88320), the definition. */
std::uint32_t
crc32Reference(const unsigned char *p, std::size_t len,
               std::uint32_t seed)
{
    std::uint32_t c = ~seed;
    for (std::size_t i = 0; i < len; ++i) {
        c ^= p[i];
        for (int bit = 0; bit < 8; ++bit)
            c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
    }
    return ~c;
}

TEST(Crc32, KnownAnswersAndSlicedEqualsBytewise)
{
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0u);
    EXPECT_EQ(crc32(nullptr, 0, 0x12345678u), 0x12345678u);

    // Every length 0-100 at every start offset 0-7 crosses the
    // 8-byte fold and the bytewise tail at every alignment.
    unsigned char buf[128];
    Rng rng(42);
    for (unsigned char &b : buf)
        b = static_cast<unsigned char>(rng.next());
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 100; ++len) {
            const unsigned char *p = buf + offset;
            const std::uint32_t want = crc32Reference(p, len, 0);
            EXPECT_EQ(crc32(p, len), want)
                << "offset " << offset << " len " << len;
            // Chained through seed: any split gives the same value.
            const std::size_t cut = len / 3;
            EXPECT_EQ(crc32(p + cut, len - cut, crc32(p, cut)), want)
                << "offset " << offset << " len " << len;
            EXPECT_EQ(crc32(p, len, 0xdeadbeefu),
                      crc32Reference(p, len, 0xdeadbeefu))
                << "offset " << offset << " len " << len;
        }
    }
}

// ---- durability layer (atomic_file) ----------------------------------

/** Restores the durable-sync knob however the test exits. */
class DurabilityTest : public ::testing::Test
{
  protected:
    void SetUp() override { was_ = durableSyncEnabled(); }
    void TearDown() override { setDurableSync(was_); }

    static std::string
    tmpPath(const char *leaf)
    {
        return (std::filesystem::temp_directory_path() /
                (std::string("dmdc_durability_") + leaf +
                 std::to_string(::getpid())))
            .string();
    }

  private:
    bool was_ = true;
};

TEST_F(DurabilityTest, AtomicWriteFsyncsFileAndDirectory)
{
    const std::string path = tmpPath("atomic");
    setDurableSync(true);
    const std::uint64_t before = durableSyncCount();
    ASSERT_TRUE(writeFileAtomic(path, "payload"));
    // One fsync for the temp file's data, one for the parent
    // directory's rename entry.
    EXPECT_GE(durableSyncCount(), before + 2);

    std::ifstream is(path);
    std::string content;
    std::getline(is, content);
    EXPECT_EQ(content, "payload");
    std::filesystem::remove(path);
}

TEST_F(DurabilityTest, OptOutSkipsEveryFsync)
{
    const std::string path = tmpPath("optout");
    setDurableSync(false);
    const std::uint64_t before = durableSyncCount();
    ASSERT_TRUE(writeFileAtomic(path, "fast"));
    // Writes still land and renames still publish atomically; only
    // the fsyncs are skipped.
    EXPECT_EQ(durableSyncCount(), before);
    std::ifstream is(path);
    std::string content;
    std::getline(is, content);
    EXPECT_EQ(content, "fast");
    std::filesystem::remove(path);
}

} // namespace
} // namespace dmdc
