/**
 * @file
 * Tests for the deterministic xoshiro256** generator, including
 * statistical sanity of the derived distributions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hh"
#include "core/parallel_runner.hh"
#include "grid.hh"

namespace uvmasync
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a() == b())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = rng.uniformInt(std::uint64_t(8));
        EXPECT_LT(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntSignedRange)
{
    Rng rng(6);
    for (int i = 0; i < 1000; ++i) {
        std::int64_t v = rng.uniformInt(std::int64_t(-5), 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, NormalMoments)
{
    Rng rng(8);
    double sum = 0.0, sumsq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double x = rng.normal();
        sum += x;
        sumsq += x * x;
    }
    double mean = sum / n;
    double var = sumsq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalShifted)
{
    Rng rng(9);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, LognormalPreservesMean)
{
    Rng rng(10);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double x = rng.lognormalMeanCv(5.0, 0.3);
        EXPECT_GT(x, 0.0);
        sum += x;
    }
    EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, LognormalZeroCvIsDeterministic)
{
    Rng rng(11);
    EXPECT_DOUBLE_EQ(rng.lognormalMeanCv(3.0, 0.0), 3.0);
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(12);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        if (rng.chance(0.25))
            ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

// --- Counter-derived point streams (parallel engine contract) ---------

/** Pearson correlation of paired uniform draws from two streams. */
double
streamCorrelation(Rng &a, Rng &b, int n)
{
    double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
    for (int i = 0; i < n; ++i) {
        double x = a.uniform();
        double y = b.uniform();
        sa += x;
        sb += y;
        saa += x * x;
        sbb += y * y;
        sab += x * y;
    }
    double cov = sab / n - (sa / n) * (sb / n);
    double va = saa / n - (sa / n) * (sa / n);
    double vb = sbb / n - (sb / n) * (sb / n);
    return cov / std::sqrt(va * vb);
}

TEST(PointStream, SameKeyGivesIdenticalStream)
{
    // Deterministic replay: the same (baseSeed, workload, mode,
    // trial) key always derives the same stream, on any thread, in
    // any submission order.
    std::uint64_t s1 = pointSeed(
        42, "saxpy", TransferMode::Uvm, 3);
    std::uint64_t s2 = pointSeed(
        42, "saxpy", TransferMode::Uvm, 3);
    EXPECT_EQ(s1, s2);
    Rng a(s1), b(s2);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a(), b());
}

TEST(PointStream, DifferentTrialsAreUncorrelated)
{
    Rng a(pointSeed(42, "saxpy", TransferMode::Uvm,
                                    0));
    Rng b(pointSeed(42, "saxpy", TransferMode::Uvm,
                                    1));
    EXPECT_NEAR(streamCorrelation(a, b, 20000), 0.0, 0.03);
}

TEST(PointStream, DifferentModesAreUncorrelated)
{
    Rng a(pointSeed(42, "saxpy",
                                    TransferMode::Standard, 0));
    Rng b(pointSeed(42, "saxpy", TransferMode::Async,
                                    0));
    EXPECT_NEAR(streamCorrelation(a, b, 20000), 0.0, 0.03);
}

TEST(PointStream, DifferentWorkloadsAreUncorrelated)
{
    Rng a(pointSeed(42, "saxpy", TransferMode::Uvm,
                                    0));
    Rng b(pointSeed(42, "gemm", TransferMode::Uvm,
                                    0));
    EXPECT_NEAR(streamCorrelation(a, b, 20000), 0.0, 0.03);
}

TEST(PointStream, AnyDifferingKeyComponentChangesTheSeed)
{
    std::uint64_t base = pointSeed(
        42, "saxpy", TransferMode::Uvm, 0);
    EXPECT_NE(base, pointSeed(
                        43, "saxpy", TransferMode::Uvm, 0));
    EXPECT_NE(base, pointSeed(
                        42, "gemm", TransferMode::Uvm, 0));
    EXPECT_NE(base, pointSeed(
                        42, "saxpy", TransferMode::UvmPrefetch, 0));
    EXPECT_NE(base, pointSeed(
                        42, "saxpy", TransferMode::Uvm, 1));
}

TEST(PointStream, SeedsWellDistributedOverTrialCounter)
{
    // The counter-derived streams must not collide as the trial
    // index sweeps a realistic replication range.
    std::set<std::uint64_t> seeds;
    for (std::uint32_t trial = 0; trial < 4096; ++trial)
        seeds.insert(pointSeed(
            42, "saxpy", TransferMode::Uvm, trial));
    EXPECT_EQ(seeds.size(), 4096u);
}

/** Property sweep: distributions behave across many seeds. */
class RngSeedTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngSeedTest, UniformMeanNearHalf)
{
    Rng rng(GetParam());
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST_P(RngSeedTest, NoShortCycles)
{
    Rng rng(GetParam());
    std::uint64_t first = rng();
    for (int i = 0; i < 10000; ++i)
        ASSERT_NE(rng(), first) << "cycle at step " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedTest,
                         ::testing::Values(0ull, 1ull, 42ull,
                                           0xdeadbeefull,
                                           ~0ull));

} // namespace
} // namespace uvmasync
