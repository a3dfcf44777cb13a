/**
 * @file
 * Tests for the host-memory placement model, device memory LRU
 * and the access-pattern taxonomy/stream generator.
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/access_pattern.hh"
#include "mem/device_memory.hh"
#include "mem/host_memory.hh"

namespace uvmasync
{
namespace
{

// --- Host memory ----------------------------------------------------

TEST(HostMemory, CapacityFromConfig)
{
    HostMemory host("host", HostMemoryConfig{});
    EXPECT_EQ(host.totalCapacity(), gib(1024)); // 16 x 64 GB
}

TEST(HostMemory, SmallFootprintsDoNotStraddle)
{
    HostMemory host("host", HostMemoryConfig{});
    EXPECT_FALSE(host.straddles(gib(4)));
    Rng rng(1);
    EXPECT_DOUBLE_EQ(host.placementFactor(gib(4), rng), 1.0);
}

TEST(HostMemory, LargeFootprintsStraddle)
{
    HostMemory host("host", HostMemoryConfig{});
    EXPECT_TRUE(host.straddles(gib(32)));
}

TEST(HostMemory, PlacementFactorBounded)
{
    HostMemory host("host", HostMemoryConfig{});
    Rng rng(2);
    for (int i = 0; i < 200; ++i) {
        double f = host.placementFactor(gib(32), rng);
        EXPECT_GT(f, 0.0);
        EXPECT_LE(f, 1.0);
    }
    EXPECT_GT(host.straddledRuns(), 0u);
}

TEST(HostMemory, StraddleAddsVariance)
{
    HostMemory host("host", HostMemoryConfig{});
    Rng rng(3);
    double lo = 1.0, hi = 0.0;
    for (int i = 0; i < 200; ++i) {
        double f = host.placementFactor(gib(32), rng);
        lo = std::min(lo, f);
        hi = std::max(hi, f);
    }
    EXPECT_LT(lo, hi); // genuinely random across runs
}

TEST(HostMemory, DeterministicGivenSeed)
{
    HostMemory host("host", HostMemoryConfig{});
    Rng a(9), b(9);
    EXPECT_DOUBLE_EQ(host.placementFactor(gib(32), a),
                     host.placementFactor(gib(32), b));
}

// --- Device memory --------------------------------------------------

TEST(DeviceMemory, InsertAndAccounting)
{
    DeviceMemory dev("hbm", mib(1), Bandwidth::fromGBps(1400.0));
    dev.insert(ResidentChunk{0, 0, kib(256)});
    EXPECT_EQ(dev.residentBytes(), kib(256));
    EXPECT_EQ(dev.freeBytes(), mib(1) - kib(256));
    EXPECT_TRUE(dev.fits(kib(768)));
    EXPECT_FALSE(dev.fits(kib(769)));
}

TEST(DeviceMemory, EvictsLeastRecentlyUsed)
{
    DeviceMemory dev("hbm", mib(1), Bandwidth::fromGBps(1400.0));
    dev.insert(ResidentChunk{0, 0, kib(256)});
    dev.insert(ResidentChunk{0, 1, kib(256)});
    dev.touch(0, 0); // chunk 0 becomes most recent
    ResidentChunk victim = dev.evictVictim();
    EXPECT_EQ(victim.chunkIndex, 1u);
    EXPECT_EQ(dev.residentBytes(), kib(256));
    EXPECT_EQ(dev.evictions(), 1u);
}

TEST(DeviceMemory, LruTrackingToggle)
{
    DeviceMemory dev("hbm", mib(1), Bandwidth::fromGBps(1400.0));
    dev.setLruTracking(false);
    dev.insert(ResidentChunk{0, 0, kib(64)});
    dev.touch(0, 0); // no-op, must not crash
    EXPECT_EQ(dev.residentBytes(), kib(64));
    dev.clear();
    EXPECT_EQ(dev.residentBytes(), 0u);
}

TEST(DeviceMemoryDeathTest, OversubscribingInsertPanics)
{
    DeviceMemory dev("hbm", kib(64), Bandwidth::fromGBps(1400.0));
    EXPECT_DEATH(dev.insert(ResidentChunk{0, 0, kib(65)}),
                 "oversubscribe");
}

TEST(DeviceMemoryDeathTest, EvictWithoutResidencyPanics)
{
    DeviceMemory dev("hbm", kib(64), Bandwidth::fromGBps(1400.0));
    EXPECT_DEATH(dev.evictVictim(), "nothing resident");
}

// --- Access patterns -------------------------------------------------

TEST(AccessPattern, NamesAreDistinct)
{
    std::set<std::string> names;
    for (AccessPattern p :
         {AccessPattern::Sequential, AccessPattern::Strided,
          AccessPattern::Tiled, AccessPattern::Random,
          AccessPattern::Irregular, AccessPattern::Broadcast})
        names.insert(accessPatternName(p));
    EXPECT_EQ(names.size(), 6u);
}

TEST(AccessPattern, RegularityOrdering)
{
    // The paper's key distinction: regular >> irregular >> random.
    EXPECT_GT(patternRegularity(AccessPattern::Sequential),
              patternRegularity(AccessPattern::Irregular));
    EXPECT_GT(patternRegularity(AccessPattern::Irregular),
              patternRegularity(AccessPattern::Random));
    EXPECT_GT(patternRegularity(AccessPattern::Tiled), 0.8);
}

TEST(AccessPattern, LocalityOrdering)
{
    EXPECT_GT(patternLocality(AccessPattern::Sequential),
              patternLocality(AccessPattern::Strided));
    EXPECT_GT(patternLocality(AccessPattern::Irregular),
              patternLocality(AccessPattern::Random));
}

TEST(AccessPattern, SectorTrafficOrdering)
{
    EXPECT_DOUBLE_EQ(patternSectorTraffic(AccessPattern::Sequential),
                     1.0);
    EXPECT_GT(patternSectorTraffic(AccessPattern::Random),
              patternSectorTraffic(AccessPattern::Irregular));
    EXPECT_LE(patternSectorTraffic(AccessPattern::Tiled), 1.0);
}

TEST(StreamGenerator, AddressesStayInFootprint)
{
    for (AccessPattern p :
         {AccessPattern::Sequential, AccessPattern::Strided,
          AccessPattern::Tiled, AccessPattern::Random,
          AccessPattern::Irregular, AccessPattern::Broadcast}) {
        StreamGenerator gen(p, kib(64), 4, 11);
        for (int i = 0; i < 5000; ++i) {
            Addr a = gen.next();
            ASSERT_LT(a, kib(64)) << accessPatternName(p);
            ASSERT_EQ(a % 4, 0u);
        }
    }
}

TEST(StreamGenerator, SequentialIsUnitStride)
{
    StreamGenerator gen(AccessPattern::Sequential, kib(4), 4, 1);
    EXPECT_EQ(gen.next(), 0u);
    EXPECT_EQ(gen.next(), 4u);
    EXPECT_EQ(gen.next(), 8u);
}

TEST(StreamGenerator, RandomCoversSpace)
{
    StreamGenerator gen(AccessPattern::Random, kib(4), 4, 2);
    std::set<Addr> seen;
    for (int i = 0; i < 20000; ++i)
        seen.insert(gen.next());
    // 1024 elements; random sampling should touch nearly all.
    EXPECT_GT(seen.size(), 1000u);
}

TEST(StreamGenerator, DeterministicPerSeed)
{
    StreamGenerator a(AccessPattern::Irregular, kib(64), 4, 33);
    StreamGenerator b(AccessPattern::Irregular, kib(64), 4, 33);
    EXPECT_EQ(a.generate(1000), b.generate(1000));
}

} // namespace
} // namespace uvmasync
