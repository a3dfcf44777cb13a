/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**).
 *
 * Every stochastic element of the simulator (measurement noise, random
 * access traces, DRAM placement) draws from an Rng seeded from the
 * experiment's (workload, mode, run) triple so that results are exactly
 * reproducible run-to-run and machine-to-machine.
 */

#ifndef UVMASYNC_COMMON_RNG_HH
#define UVMASYNC_COMMON_RNG_HH

#include <array>
#include <cstdint>

namespace uvmasync
{

/**
 * xoshiro256** generator with splitmix64 seeding.
 *
 * Satisfies the UniformRandomBitGenerator concept so it can be used
 * with standard distributions, but also offers the handful of
 * distributions the simulator needs directly.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a single 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Next raw 64-bit value. */
    result_type operator()();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n); n must be > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal via Box-Muller (cached pair). */
    double normal();

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Lognormal parameterised directly by the target mean and the
     * coefficient of variation of the resulting distribution; handy
     * for "runtime jitter around a mean" noise models.
     */
    double lognormalMeanCv(double mean, double cv);

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p);

  private:
    static std::uint64_t splitmix64(std::uint64_t &state);

    std::array<std::uint64_t, 4> s_;
    double cachedNormal_;
    bool hasCachedNormal_;
};

} // namespace uvmasync

#endif // UVMASYNC_COMMON_RNG_HH
