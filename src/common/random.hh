/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Everything stochastic in the simulator (synthetic workloads,
 * wrong-path synthesis, invalidation injection) draws from Rng so runs
 * are exactly reproducible given a seed. The per-draw paths are inline:
 * workload generation calls them several times per micro-op.
 */

#ifndef DMDC_COMMON_RANDOM_HH
#define DMDC_COMMON_RANDOM_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dmdc
{

/**
 * A small, fast, seedable PRNG (xoshiro256** variant). Deterministic
 * across platforms; not suitable for cryptography, ideal for simulation.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Re-seed, returning the generator to a known state. */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;

        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound); bound must be > 0. */
    std::uint64_t
    range(std::uint64_t bound)
    {
        assert(bound > 0);
        // Rejection-free multiply-shift; bias is negligible for
        // simulation-scale bounds.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1): 53 random mantissa bits. */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p of true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Sample a geometric-ish distance >= 1 with mean roughly @p mean.
     * This is the reference formula: GeometricTable reproduces it
     * exactly for repeated draws at one mean.
     */
    unsigned geometric(double mean);

    /**
     * geometric(@p mean) for the 53-bit draw @p draw (next() >> 11),
     * without touching any generator. Requires mean > 1.
     */
    static unsigned geometricOfDraw(double mean, std::uint64_t draw);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];
};

/** splitmix64 step, also usable as a stateless integer hash. */
inline std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Stateless mixing hash of a 64-bit value (for per-PC determinism). */
inline std::uint64_t
mixHash(std::uint64_t v)
{
    return splitmix64(v);
}

/**
 * Stateless hash of a byte string (FNV-1a folded through splitmix64).
 * Used for cache fingerprints; deterministic across platforms and
 * runs, unlike std::hash.
 */
std::uint64_t hashBytes(const void *data, std::size_t len,
                        std::uint64_t seed = 0);

/**
 * Rng::geometric(mean) as a threshold table on the 53-bit draw: one
 * next(), one bucket lookup and usually at most one compare per sample
 * instead of two log1p calls, with exactly the same result for every
 * draw.
 */
class GeometricTable
{
  public:
    explicit GeometricTable(double mean);

    /**
     * The process-wide table for @p mean, built on first use. Building
     * one costs ~3 us warm and ~13 us cold, so workloads share them;
     * tables are immutable, so any thread may sample one.
     */
    static const GeometricTable &forMean(double mean);

    /** Same value and generator advance as rng.geometric(mean). */
    unsigned
    sample(Rng &rng) const
    {
        if (thresholds_.empty())
            return 1;       // mean <= 1: the formula draws nothing
        return sampleOfDraw(rng.next() >> 11);
    }

    /**
     * Rng::geometricOfDraw(mean, @p draw) by table lookup: the draw's
     * top bits pick a bucket whose start is the sample at the bucket's
     * first draw, and the scan finishes from there. Requires mean > 1.
     */
    unsigned
    sampleOfDraw(std::uint64_t draw) const
    {
        unsigned k = bucketStart_[draw >> bucketShift];
        // The last threshold is 2^53, above every draw, so the scan
        // needs no bounds check.
        const std::uint64_t *t = thresholds_.data() + k;
        while (draw >= *t) {
            ++t;
            ++k;
        }
        return k;
    }

    /**
     * Entry k is the smallest draw at which the sample reaches k + 1;
     * the final entry is the 2^53 sentinel. Empty for mean <= 1.
     */
    const std::vector<std::uint64_t> &thresholds() const
    {
        return thresholds_;
    }

    /** log2 of the bucket count; a bucket spans 2^(53 - bits) draws. */
    static constexpr unsigned bucketBits = 10;
    static constexpr unsigned bucketShift = 53 - bucketBits;

  private:
    std::vector<std::uint64_t> thresholds_;
    /** Entry b: the sample at draw b << bucketShift. */
    std::vector<std::uint16_t> bucketStart_;
};

} // namespace dmdc

#endif // DMDC_COMMON_RANDOM_HH
