#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace uvmasync
{

namespace
{

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t
Rng::splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
    : cachedNormal_(0.0), hasCachedNormal_(false)
{
    std::uint64_t state = seed;
    for (auto &word : s_)
        word = splitmix64(state);
    // xoshiro must not start from the all-zero state.
    if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0)
        s_[0] = 0x9e3779b97f4a7c15ull;
}

Rng::result_type
Rng::operator()()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 high-order bits to a double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    UVMASYNC_ASSERT(n > 0, "uniformInt(0) is undefined");
    // Lemire-style rejection-free-enough bound; bias is negligible for
    // the n << 2^64 values the simulator uses.
    return static_cast<std::uint64_t>(uniform() * static_cast<double>(n))
           % n;
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    UVMASYNC_ASSERT(lo <= hi, "bad range [%lld, %lld]",
                    static_cast<long long>(lo),
                    static_cast<long long>(hi));
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniformInt(span));
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    double u2 = uniform();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::lognormalMeanCv(double mean, double cv)
{
    UVMASYNC_ASSERT(mean > 0.0 && cv >= 0.0,
                    "lognormal needs mean > 0, cv >= 0 (got %f, %f)",
                    mean, cv);
    if (cv == 0.0)
        return mean;
    double sigma2 = std::log(1.0 + cv * cv);
    double mu = std::log(mean) - 0.5 * sigma2;
    return std::exp(normal(mu, std::sqrt(sigma2)));
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

} // namespace uvmasync
