/**
 * @file
 * Deterministic pseudo-random number generation for workload input
 * synthesis.  xoshiro256** — fast, high quality, fully reproducible
 * across platforms (unlike std::mt19937 distributions, whose results
 * are implementation-defined for some distribution types).
 */

#ifndef PEISIM_COMMON_RNG_HH
#define PEISIM_COMMON_RNG_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "logging.hh"

namespace pei
{

/** xoshiro256** 1.0 generator (Blackman & Vigna, public domain). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL)
    {
        // SplitMix64 seeding to decorrelate nearby seeds.
        std::uint64_t z = seed;
        for (auto &word : state) {
            z += 0x9E3779B97F4A7C15ULL;
            std::uint64_t x = z;
            x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
            x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
            word = x ^ (x >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        step(state);
        return result;
    }

    /**
     * Advance by exactly @p n draws, as n calls of next() would, in
     * O(log n).  The state update is linear over GF(2), so n draws
     * are the 256x256 step matrix raised to the n-th power, applied
     * by square-and-multiply.  Lets independent host threads each
     * start at their own offset of one seeded stream.
     */
    void
    discard(std::uint64_t n)
    {
        // Column j of a matrix is the image of the state with only
        // bit j set; the step matrix's columns are one step() each.
        using Matrix = std::vector<State>;
        Matrix power(256);
        for (unsigned j = 0; j < 256; ++j) {
            power[j] = State{};
            power[j][j / 64] = std::uint64_t{1} << (j % 64);
            step(power[j]);
        }
        Matrix square(256);
        while (n) {
            if (n & 1)
                state = apply(power, state);
            n >>= 1;
            if (n) {
                for (unsigned j = 0; j < 256; ++j)
                    square[j] = apply(power, power[j]);
                power.swap(square);
            }
        }
    }

    /** Uniform integer in [0, bound) via Lemire's method. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        panic_if(bound == 0, "Rng::below(0)");
        // Rejection-free multiply-shift; bias is negligible for
        // simulation input generation (bound << 2^64).
        return static_cast<std::uint64_t>(
            (static_cast<__uint128_t>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi]. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    using State = std::array<std::uint64_t, 4>;

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** One xoshiro256 state transition (linear over GF(2)). */
    static void
    step(State &s)
    {
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
    }

    /** GF(2) product of the column matrix @p m with @p v. */
    static State
    apply(const std::vector<State> &m, const State &v)
    {
        State out{};
        for (unsigned j = 0; j < 256; ++j) {
            const std::uint64_t take = 0 - ((v[j / 64] >> (j % 64)) & 1);
            for (unsigned w = 0; w < 4; ++w)
                out[w] ^= m[j][w] & take;
        }
        return out;
    }

    State state;
};

/**
 * Zipf-distributed integer sampler over [0, n) with exponent @p s,
 * using a precomputed inverse-CDF table.  Used to synthesize skewed
 * (power-law-like) access patterns, e.g. hash-join key popularity.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::size_t n, double s, std::uint64_t seed)
        : rng(seed), cdf(n)
    {
        fatal_if(n == 0, "ZipfSampler over empty domain");
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
            cdf[i] = sum;
        }
        for (auto &c : cdf)
            c /= sum;
    }

    /** Draw one sample. */
    std::size_t
    sample()
    {
        const double u = rng.uniform();
        // Binary search the CDF.
        std::size_t lo = 0, hi = cdf.size() - 1;
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (cdf[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

  private:
    Rng rng;
    std::vector<double> cdf;
};

} // namespace pei

#endif // PEISIM_COMMON_RNG_HH
