/**
 * @file
 * Tests for far-fault batching and the prefetcher model.
 */

#include <gtest/gtest.h>

#include "xfer/fault_handler.hh"
#include "xfer/prefetcher.hh"
#include "stat_of.hh"

namespace uvmasync
{
namespace
{

FaultHandlerConfig
cfg()
{
    FaultHandlerConfig c;
    c.batchBaseLatency = microseconds(20);
    c.perFaultLatency = microseconds(1);
    c.batchWindow = microseconds(10);
    c.maxBatchSize = 4;
    return c;
}

TEST(FaultHandler, SingleFaultPaysBasePlusOne)
{
    FaultHandler h("fh", cfg());
    Tick done = h.service(0);
    EXPECT_EQ(done, microseconds(21));
    EXPECT_EQ(statOf(h, "faults"), 1u);
    EXPECT_EQ(statOf(h, "batches"), 1u);
}

TEST(FaultHandler, SimultaneousFaultsShareBatch)
{
    FaultHandler h("fh", cfg());
    Tick d1 = h.service(0);
    Tick d2 = h.service(0);
    Tick d3 = h.service(0);
    EXPECT_EQ(statOf(h, "batches"), 1u);
    // Later joiners resolve later (per-fault marginal cost).
    EXPECT_LT(d1, d2);
    EXPECT_LT(d2, d3);
    EXPECT_DOUBLE_EQ(h.meanBatchSize(), 3.0);
}

TEST(FaultHandler, BatchSizeCapOpensNewBatch)
{
    FaultHandler h("fh", cfg());
    for (int i = 0; i < 4; ++i)
        h.service(0);
    h.service(0); // fifth: cap is 4
    EXPECT_EQ(statOf(h, "batches"), 2u);
}

TEST(FaultHandler, WindowExpiryOpensNewBatch)
{
    FaultHandler h("fh", cfg());
    h.service(0);
    h.service(microseconds(11)); // outside 10 us window
    EXPECT_EQ(statOf(h, "batches"), 2u);
}

TEST(FaultHandler, BatchesSerializeOnHandler)
{
    FaultHandler h("fh", cfg());
    Tick d1 = h.service(0);
    // A fault arriving after the window but before the handler
    // finished starts its batch when the handler frees up.
    Tick d2 = h.service(microseconds(11));
    EXPECT_GE(d2, d1);
}

TEST(FaultHandler, ResetClearsTimeline)
{
    FaultHandler h("fh", cfg());
    h.service(0);
    h.reset();
    EXPECT_EQ(statOf(h, "faults"), 0u);
    EXPECT_EQ(h.service(0), microseconds(21));
}

/** The candidates of one miss, as a fresh vector. */
std::vector<PrefetchCandidate>
miss(Prefetcher &p, std::size_t rangeId, std::uint64_t chunk,
     std::uint64_t chunkCount)
{
    std::vector<PrefetchCandidate> out;
    p.appendCandidates(rangeId, chunk, chunkCount, out);
    return out;
}

TEST(Prefetcher, NoneNeverPredicts)
{
    Prefetcher p("none", PrefetcherKind::None);
    EXPECT_TRUE(miss(p, 0, 5, 100).empty());
    EXPECT_EQ(statOf(p, "issued"), 0u);
}

TEST(Prefetcher, StreamPredictsNextN)
{
    Prefetcher p("stream", PrefetcherKind::Stream);
    auto preds = miss(p, 0, 10, 100);
    ASSERT_EQ(preds.size(), 8u);
    EXPECT_EQ(preds[0].chunkIndex, 11u);
    EXPECT_EQ(preds[7].chunkIndex, 18u);
    EXPECT_EQ(statOf(p, "issued"), 8u);
}

TEST(Prefetcher, StreamClampsAtRangeEnd)
{
    Prefetcher p("stream", PrefetcherKind::Stream);
    auto preds = miss(p, 0, 98, 100);
    EXPECT_EQ(preds.size(), 1u);
}

TEST(Prefetcher, AppendKeepsEarlierCandidates)
{
    Prefetcher p("stream", PrefetcherKind::Stream);
    std::vector<PrefetchCandidate> out = {PrefetchCandidate{3, 7}};
    p.appendCandidates(0, 98, 100, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].rangeId, 3u);
    EXPECT_EQ(out[1].chunkIndex, 99u);
    EXPECT_EQ(statOf(p, "issued"), 1u);
}

TEST(Prefetcher, TreeGrowsOnUsefulHits)
{
    Prefetcher p("tree", PrefetcherKind::Tree);
    EXPECT_EQ(miss(p, 0, 0, 1000).size(), 2u);
    p.noteUseful(0);
    EXPECT_EQ(miss(p, 0, 10, 1000).size(), 4u);
    p.noteUseful(0);
    EXPECT_EQ(miss(p, 0, 20, 1000).size(), 8u);
}

TEST(Prefetcher, TreeCapsAtMaxDistance)
{
    Prefetcher p("tree", PrefetcherKind::Tree);
    for (int i = 0; i < 6; ++i)
        p.noteUseful(0);
    EXPECT_EQ(miss(p, 0, 0, 1000).size(), 32u);
}

TEST(Prefetcher, TreeCollapsesOnWaste)
{
    Prefetcher p("tree", PrefetcherKind::Tree);
    p.noteUseful(0);
    p.noteUseful(0);
    EXPECT_EQ(miss(p, 0, 0, 1000).size(), 8u);
    p.noteWasted(0);
    EXPECT_EQ(miss(p, 0, 50, 1000).size(), 2u);
}

TEST(Prefetcher, TreePerRangeState)
{
    Prefetcher p("tree", PrefetcherKind::Tree);
    p.noteUseful(0);
    // Range 1 is untouched and stays at the minimum distance.
    EXPECT_EQ(miss(p, 1, 0, 1000).size(), 2u);
    EXPECT_EQ(miss(p, 0, 0, 1000).size(), 4u);
}

TEST(Prefetcher, ResetForgetsTreeState)
{
    Prefetcher p("tree", PrefetcherKind::Tree);
    p.noteUseful(0);
    p.resetStats();
    EXPECT_EQ(miss(p, 0, 0, 1000).size(), 2u);
}

TEST(Prefetcher, AccuracyAccounting)
{
    Prefetcher p("stream", PrefetcherKind::Stream);
    p.noteUseful(0);
    p.noteUseful(0);
    p.noteWasted(0);
    EXPECT_NEAR(p.accuracy(), 2.0 / 3.0, 1e-9);
    p.resetStats();
    EXPECT_DOUBLE_EQ(p.accuracy(), 0.0);
}

TEST(Prefetcher, EachKindKeepsItsTag)
{
    for (PrefetcherKind kind : {PrefetcherKind::None,
                                PrefetcherKind::Stream,
                                PrefetcherKind::Tree}) {
        Prefetcher p("p", kind);
        EXPECT_EQ(p.kind(), kind);
    }
}

} // namespace
} // namespace uvmasync
