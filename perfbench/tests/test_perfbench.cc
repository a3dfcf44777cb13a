/**
 * @file
 * Tests of the benchmark's own math and output check: percentiles,
 * medians, span self times, digests and the reference comparison.
 */

#include <gtest/gtest.h>

#include "digest.hh"
#include "spans.hh"
#include "stats.hh"

using namespace perfbench;

TEST(Stats, MedianOfOddAndEvenCounts)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, PercentileInterpolatesBetweenClosestRanks)
{
    std::vector<double> v;
    for (int i = 0; i <= 100; ++i)
        v.push_back(100.0 - i); // unsorted on purpose
    EXPECT_DOUBLE_EQ(percentile(v, 90), 90.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0), 0.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 100.0);
    EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 25), 12.5);
    EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 150), 20.0);
}

TEST(Stats, P90NeedsTenSamplesBeyondIt)
{
    std::vector<double> v;
    for (int i = 0; i < 90; ++i)
        v.push_back(i);
    EXPECT_EQ(countAbove(v, percentile(v, 90)), 9u);
    EXPECT_FALSE(percentileReportable(v, 90));
    for (int i = 90; i < 100; ++i)
        v.push_back(i);
    EXPECT_EQ(countAbove(v, percentile(v, 90)), 10u);
    EXPECT_TRUE(percentileReportable(v, 90));
    EXPECT_TRUE(percentileReportable(v, 50));
    EXPECT_FALSE(percentileReportable({}, 50));
}

TEST(Spans, SelfTimeSubtractsChildren)
{
    Span root{1, 1, 0, "point", 0.0, 10.0};
    Span a{1, 2, 1, "analysis.lint", 1.0, 4.0};
    Span b{1, 3, 1, "runtime.device_run", 4.0, 9.0};
    Span c{1, 4, 3, "gpu.l1_replay", 20.0, 22.0}; // attributed child
    std::map<std::uint64_t, double> self = selfTimes({root, a, b, c});
    EXPECT_DOUBLE_EQ(self[1], 2.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
    EXPECT_DOUBLE_EQ(self[3], 3.0);
    EXPECT_DOUBLE_EQ(self[4], 2.0);
}

TEST(Digest, Fnv1aKnownVectors)
{
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
}

TEST(Digest, ResultDigestSeesOneUlp)
{
    uvmasync::ExperimentResult r;
    r.workload = "saxpy";
    r.counters.l1LoadMissRate = 0.25;
    std::string base = resultDigest(r);
    EXPECT_EQ(resultDigest(r), base);
    r.counters.l1LoadMissRate = std::nextafter(0.25, 1.0);
    EXPECT_NE(resultDigest(r), base);
}

TEST(Digest, ModelDigestCoversStatsAndTraceMetrics)
{
    uvmasync::StatMap stats{{"hbm.evictions", 3.0}};
    uvmasync::TraceMetrics m;
    std::string base = modelDigest(stats, m);
    m.faultBatches = 1;
    EXPECT_NE(modelDigest(stats, m), base);
    m.faultBatches = 0;
    stats["hbm.evictions"] = 4.0;
    EXPECT_NE(modelDigest(stats, m), base);
}

TEST(Reference, RoundTripsAndChecks)
{
    Reference ref;
    std::string key =
        pointKey(42, "gemm", uvmasync::SizeClass::Mega,
                 uvmasync::TransferMode::Uvm);
    EXPECT_EQ(key, "42 gemm mega uvm");
    ref.set(key, {"00000000000000aa", "00000000000000bb"});
    Reference back;
    std::string error;
    ASSERT_TRUE(back.parse(ref.render("# header\n"), error)) << error;
    EXPECT_EQ(back.size(), 1u);
    EXPECT_EQ(back.checkResult(key, "00000000000000aa"), Verdict::Match);
    EXPECT_EQ(back.checkResult(key, "00000000000000ab"),
              Verdict::Mismatch);
    EXPECT_EQ(back.checkModel(key, "00000000000000bb"), Verdict::Match);
    EXPECT_EQ(back.checkModel("43 gemm mega uvm", "00000000000000bb"),
              Verdict::Missing);
}

TEST(Reference, RejectsMalformedAndDuplicateLines)
{
    Reference ref;
    std::string error;
    EXPECT_FALSE(ref.parse("42 gemm mega uvm aa\n", error));
    EXPECT_NE(error.find("line 1"), std::string::npos);
    EXPECT_FALSE(ref.parse("42 gemm mega uvm aa bb\n"
                           "42 gemm mega uvm aa bb\n",
                           error));
    EXPECT_NE(error.find("duplicate"), std::string::npos);
    EXPECT_FALSE(ref.parse("42 gemm mega uvm aa bb cc\n", error));
}
