/**
 * @file
 * Tests for the statistics helpers: percentiles, geometric means and
 * relative change.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "common/stats.hh"

namespace uvmasync
{
namespace
{

TEST(SampleSet, KnownValues)
{
    SampleSet set;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        set.add(x);
    EXPECT_DOUBLE_EQ(set.mean(), 5.0);
    EXPECT_NEAR(set.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(SampleSet, Percentiles)
{
    SampleSet set;
    for (int i = 1; i <= 100; ++i)
        set.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(set.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(set.percentile(100.0), 100.0);
    EXPECT_NEAR(set.percentile(50.0), 50.5, 1e-9);
    EXPECT_NEAR(set.percentile(25.0), 25.75, 1e-9);
}

TEST(SampleSet, CvZeroMean)
{
    SampleSet set;
    set.add(0.0);
    set.add(0.0);
    EXPECT_DOUBLE_EQ(set.cv(), 0.0);
}

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Geomean, BelowArithmeticMean)
{
    Rng rng(3);
    std::vector<double> vals;
    double sum = 0.0;
    for (int i = 0; i < 100; ++i) {
        double v = rng.uniform(0.5, 5.0);
        vals.push_back(v);
        sum += v;
    }
    EXPECT_LE(geomean(vals), sum / 100.0);
}

TEST(Helpers, RelativeChange)
{
    EXPECT_DOUBLE_EQ(relativeChange(120.0, 100.0), 0.2);
    EXPECT_DOUBLE_EQ(relativeChange(80.0, 100.0), -0.2);
    EXPECT_DOUBLE_EQ(relativeChange(1.0, 0.0), 0.0);
}

} // namespace
} // namespace uvmasync
