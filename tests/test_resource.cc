/**
 * @file
 * Tests for the busy-until bandwidth resources, including the
 * conservation property (total busy time equals the sum of services).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sim/resource.hh"

namespace uvmasync
{
namespace
{

TEST(BandwidthResource, FirstRequestStartsImmediately)
{
    BandwidthResource r("r", Bandwidth::fromGBps(1.0));
    Occupancy occ = r.acquire(nanoseconds(100), 1000);
    EXPECT_EQ(occ.start, nanoseconds(100));
    EXPECT_EQ(occ.duration(), microseconds(1)); // 1000 B at 1 B/us
}

TEST(BandwidthResource, BackToBackRequestsQueue)
{
    BandwidthResource r("r", Bandwidth::fromGBps(1.0));
    Occupancy a = r.acquire(0, 1000);
    Occupancy b = r.acquire(0, 1000);
    EXPECT_EQ(b.start, a.end);
    EXPECT_EQ(b.end, a.end + microseconds(1));
}

TEST(BandwidthResource, IdleGapResetsStart)
{
    BandwidthResource r("r", Bandwidth::fromGBps(1.0));
    Occupancy a = r.acquire(0, 1000);
    Occupancy b = r.acquire(a.end + microseconds(5), 1000);
    EXPECT_EQ(b.start, a.end + microseconds(5));
}

TEST(BandwidthResource, PerRequestLatencyAdds)
{
    BandwidthResource r("r", Bandwidth::fromGBps(1.0),
                        microseconds(2));
    Occupancy occ = r.acquire(0, 1000);
    EXPECT_EQ(occ.duration(), microseconds(2) + microseconds(1));
}

TEST(BandwidthResource, StatsAccumulate)
{
    BandwidthResource r("r", Bandwidth::fromGBps(2.0));
    r.acquire(0, 4000);
    r.acquire(0, 6000);
    EXPECT_EQ(r.requests(), 2u);
    EXPECT_EQ(r.busyTime(), microseconds(5));
}

TEST(BandwidthResource, ResetClearsTimeline)
{
    BandwidthResource r("r", Bandwidth::fromGBps(1.0));
    r.acquire(0, mib(1));
    r.reset();
    Occupancy occ = r.acquire(0, 1000);
    EXPECT_EQ(occ.start, 0u);
}

TEST(BandwidthResource, ConservationProperty)
{
    // Total busy time equals the sum of individual service times
    // regardless of the arrival pattern.
    Rng rng(77);
    BandwidthResource r("r", Bandwidth::fromGBps(26.0),
                        nanoseconds(100));
    Tick expected = 0;
    Tick now = 0;
    for (int i = 0; i < 500; ++i) {
        now += rng.uniformInt(std::uint64_t(microseconds(3)));
        Bytes bytes = 1 + rng.uniformInt(std::uint64_t(mib(1)));
        Occupancy occ = r.acquire(now, bytes);
        expected += occ.duration();
    }
    EXPECT_EQ(r.busyTime(), expected);
}

} // namespace
} // namespace uvmasync
