/**
 * @file
 * Rng seeding, the geometric reference formula and its threshold
 * tables, and the byte-string hash.
 */

#include "common/random.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>

#include "common/logging.hh"

namespace dmdc
{

std::uint64_t
hashBytes(const void *data, std::size_t len, std::uint64_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t h = 0xcbf29ce484222325ull ^ seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ull;
    }
    return mixHash(h);
}

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t seed_value)
{
    std::uint64_t sm = seed_value;
    for (auto &word : s)
        word = splitmix64(sm);
}

namespace
{

/** The geometric formula, given its denominator log1p(-1/mean). */
unsigned
geometricFormula(double mean, double log_q, std::uint64_t draw)
{
    // Inverse-transform sampling, clamped to keep tails sane.
    const double u = static_cast<double>(draw) * 0x1.0p-53;
    const double v = std::log1p(-u) / log_q;
    const double clamped = std::fmin(v + 1.0, mean * 16.0);
    return static_cast<unsigned>(clamped < 1.0 ? 1.0 : clamped);
}

} // namespace

unsigned
Rng::geometric(double mean)
{
    if (mean <= 1.0)
        return 1;
    return geometricOfDraw(mean, next() >> 11);
}

unsigned
Rng::geometricOfDraw(double mean, std::uint64_t draw)
{
    return geometricFormula(mean, std::log1p(-1.0 / mean), draw);
}

GeometricTable::GeometricTable(double mean)
{
    if (mean <= 1.0)
        return;
    constexpr std::uint64_t drawEnd = std::uint64_t{1} << 53;
    const double log_q = std::log1p(-1.0 / mean);
    auto reaches = [mean, log_q](std::uint64_t draw, unsigned k) {
        return geometricFormula(mean, log_q, draw) >= k;
    };
    const unsigned top = geometricFormula(mean, log_q, drawEnd - 1);
    thresholds_.reserve(top + 1);
    thresholds_.push_back(0);
    for (unsigned k = 2; k <= top; ++k) {
        // The answer lies in [lo, hi]: the sample reaches k at the top
        // draw and never below where it reaches k - 1.
        std::uint64_t lo = thresholds_.back();
        std::uint64_t hi = drawEnd - 1;
        // Closed form: the sample reaches k where
        // u >= 1 - (1 - 1/mean)^(k-1). Rounding can move the exact
        // boundary by a draw, so the formula decides: two evaluations
        // confirm a good guess, a few more gallop to a bracket and
        // bisect it.
        const double u = -std::expm1((k - 1) * log_q) * 0x1.0p53;
        std::uint64_t guess = u < static_cast<double>(hi)
            ? static_cast<std::uint64_t>(std::ceil(u)) : hi;
        guess = std::max(guess, lo);
        if (reaches(guess, k)) {
            hi = guess;
            for (std::uint64_t step = 1; step <= hi - lo; step *= 2) {
                if (!reaches(hi - step, k)) {
                    lo = hi - step + 1;
                    break;
                }
                hi -= step;
            }
        } else {
            lo = guess + 1;
            for (std::uint64_t step = 1; step < hi - guess; step *= 2) {
                if (reaches(guess + step, k)) {
                    hi = guess + step;
                    break;
                }
                guess += step;
                lo = guess + 1;
            }
        }
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (reaches(mid, k))
                hi = mid;
            else
                lo = mid + 1;
        }
        thresholds_.push_back(lo);
    }
    thresholds_.push_back(drawEnd);

    if (top > std::numeric_limits<std::uint16_t>::max())
        fatal("geometric mean %g: %u table entries is too many", mean, top);
    // Samples rise with the draw, so one walk of the thresholds finds
    // every bucket's start.
    bucketStart_.resize(std::size_t{1} << bucketBits);
    unsigned k = 1;
    for (std::size_t b = 0; b < bucketStart_.size(); ++b) {
        while (thresholds_[k] <= std::uint64_t{b} << bucketShift)
            ++k;
        bucketStart_[b] = static_cast<std::uint16_t>(k);
    }
}

const GeometricTable &
GeometricTable::forMean(double mean)
{
    static std::mutex mutex;
    static std::map<double, GeometricTable> tables;
    const std::lock_guard<std::mutex> lock(mutex);
    return tables.try_emplace(mean, mean).first->second;
}

} // namespace dmdc
