/**
 * @file
 * Tests for the host-memory placement model, device memory LRU
 * and the access-pattern taxonomy/stream generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <utility>

#include "common/rng.hh"
#include "mem/access_pattern.hh"
#include "mem/device_memory.hh"
#include "mem/host_memory.hh"
#include "stat_of.hh"

namespace uvmasync
{
namespace
{

// --- Host memory ----------------------------------------------------

TEST(HostMemory, CapacityFromConfig)
{
    HostMemory host("host", HostMemoryConfig{});
    EXPECT_EQ(host.config().dimmCount * host.config().dimmCapacity,
              gib(1024)); // 16 x 64 GB
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
    StatMap stats;
    host.exportStats(stats);
    EXPECT_GT(stats.at("host.straddled_runs"), 0.0);
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
    EXPECT_EQ(statOf(dev, "resident_bytes"), kib(256));
    EXPECT_EQ(dev.capacity() - statOf(dev, "resident_bytes"),
              mib(1) - kib(256));
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
    EXPECT_EQ(statOf(dev, "resident_bytes"), kib(256));
    EXPECT_EQ(statOf(dev, "evictions"), 1u);
}

TEST(DeviceMemory, LruTrackingToggle)
{
    DeviceMemory dev("hbm", mib(1), Bandwidth::fromGBps(1400.0));
    dev.setLruTracking(false);
    dev.insert(ResidentChunk{0, 0, kib(64)});
    dev.touch(0, 0); // no-op, must not crash
    EXPECT_EQ(statOf(dev, "resident_bytes"), kib(64));
    dev.clear();
    EXPECT_EQ(statOf(dev, "resident_bytes"), 0u);
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

TEST(DeviceMemoryDeathTest, DoubleInsertPanics)
{
    DeviceMemory dev("hbm", mib(1), Bandwidth::fromGBps(1400.0));
    dev.insert(ResidentChunk{0, 3, kib(64)});
    EXPECT_DEATH(dev.insert(ResidentChunk{0, 3, kib(64)}),
                 "inserted twice");
}

TEST(DeviceMemoryDeathTest, RangeIdPastTheLinkLimitPanics)
{
    // Range ids are 16-bit in the link; the check fires before the
    // range table is resized, so nothing large is allocated.
    DeviceMemory dev("hbm", mib(1), Bandwidth::fromGBps(1400.0));
    EXPECT_DEATH(dev.insert(ResidentChunk{UINT16_MAX, 0, kib(64)}),
                 "exceeds the LRU index");
    EXPECT_DEATH(dev.reserveRange(std::size_t{1} << 20, 1, kib(64)),
                 "exceeds the LRU index");
}

TEST(DeviceMemoryDeathTest, ChunkOfFourGibPanics)
{
    // A linked chunk's size is kept in 32 bits; capacity is only
    // accounting, so a large device allocates nothing here.
    DeviceMemory dev("hbm", gib(16), Bandwidth::fromGBps(1400.0));
    EXPECT_DEATH(dev.insert(ResidentChunk{0, 0, gib(4)}),
                 "4 GiB limit");
    dev.insert(ResidentChunk{0, 0, gib(4) - 1});
    EXPECT_EQ(dev.evictVictim().bytes, gib(4) - 1);
}

/**
 * Reference model: the linear deque LRU DeviceMemory used before its
 * intrusive list. Slow but obviously correct; the oracle test below
 * checks the real LRU against it step by step.
 */
class DequeLru
{
  public:
    explicit DequeLru(Bytes capacity) : capacity_(capacity) {}

    bool fits(Bytes bytes) const { return resident_ + bytes <= capacity_; }
    Bytes residentBytes() const { return resident_; }
    std::uint64_t evictions() const { return evictions_; }
    Bytes evictedBytes() const { return evictedBytes_; }
    const std::deque<ResidentChunk> &order() const { return lru_; }

    void setLruTracking(bool enabled)
    {
        track_ = enabled;
        if (!enabled)
            lru_.clear();
    }

    void insert(ResidentChunk chunk)
    {
        resident_ += chunk.bytes;
        if (track_)
            lru_.push_back(chunk);
    }

    void touch(std::size_t rangeId, std::uint64_t chunkIndex)
    {
        if (!track_)
            return;
        auto it = std::find_if(lru_.begin(), lru_.end(),
                               [&](const ResidentChunk &c) {
                                   return c.rangeId == rangeId &&
                                          c.chunkIndex == chunkIndex;
                               });
        if (it == lru_.end())
            return;
        ResidentChunk chunk = *it;
        lru_.erase(it);
        lru_.push_back(chunk);
    }

    ResidentChunk evictVictim()
    {
        ResidentChunk victim = lru_.front();
        lru_.pop_front();
        resident_ -= victim.bytes;
        ++evictions_;
        evictedBytes_ += victim.bytes;
        return victim;
    }

    void clear()
    {
        lru_.clear();
        resident_ = 0;
    }

  private:
    Bytes capacity_;
    bool track_ = true;
    Bytes resident_ = 0;
    std::deque<ResidentChunk> lru_;
    std::uint64_t evictions_ = 0;
    Bytes evictedBytes_ = 0;
};

/** Drives DeviceMemory and DequeLru through one seeded sequence. */
void
runLruOracle(std::uint64_t seed)
{
    constexpr std::size_t ranges = 4;
    constexpr std::uint64_t chunksPerRange = 48;
    const Bytes capacity = kib(64) * 64;
    DeviceMemory dev("hbm", capacity, Bandwidth::fromGBps(1400.0));
    DequeLru ref(capacity);
    Rng rng(seed);
    bool tracking = true;
    // Chunks inserted and not yet evicted or cleared (linked or not).
    std::set<std::pair<std::size_t, std::uint64_t>> resident;

    auto sameState = [&](int step) {
        EXPECT_EQ(statOf(dev, "resident_bytes"), ref.residentBytes())
            << "seed " << seed << " step " << step;
        EXPECT_EQ(statOf(dev, "evictions"), ref.evictions())
            << "seed " << seed << " step " << step;
        EXPECT_EQ(statOf(dev, "evicted_bytes"), ref.evictedBytes())
            << "seed " << seed << " step " << step;
    };
    auto evictBoth = [&](int step) {
        ResidentChunk want = ref.evictVictim();
        ResidentChunk got = dev.evictVictim();
        EXPECT_EQ(got.rangeId, want.rangeId)
            << "seed " << seed << " step " << step;
        EXPECT_EQ(got.chunkIndex, want.chunkIndex)
            << "seed " << seed << " step " << step;
        EXPECT_EQ(got.bytes, want.bytes)
            << "seed " << seed << " step " << step;
        resident.erase({want.rangeId, want.chunkIndex});
        return want;
    };
    auto insertBoth = [&](ResidentChunk chunk, int step) {
        if (resident.count({chunk.rangeId, chunk.chunkIndex}))
            return;
        while (!ref.fits(chunk.bytes) && tracking &&
               !ref.order().empty())
            evictBoth(step);
        if (!ref.fits(chunk.bytes))
            return; // only unlinked chunks left: nothing to evict
        ref.insert(chunk);
        dev.insert(chunk);
        resident.insert({chunk.rangeId, chunk.chunkIndex});
    };
    auto randomChunk = [&] {
        return ResidentChunk{rng.uniformInt(ranges),
                             rng.uniformInt(chunksPerRange),
                             kib(64) * (1 + rng.uniformInt(3))};
    };

    ResidentChunk lastVictim{0, 0, kib(64)};
    for (int step = 0; step < 4000; ++step) {
        std::uint64_t op = rng.uniformInt(100);
        const std::deque<ResidentChunk> &order = ref.order();
        if (op < 45) {
            insertBoth(randomChunk(), step);
        } else if (op < 50) {
            insertBoth(lastVictim, step); // re-insert after evict
        } else if (op < 80) {
            if (order.empty())
                continue;
            // Head, tail, or a middle chunk of the LRU order.
            std::size_t at = op < 60   ? 0
                             : op < 70 ? order.size() - 1
                                       : order.size() / 2;
            ResidentChunk c = order[at];
            ref.touch(c.rangeId, c.chunkIndex);
            dev.touch(c.rangeId, c.chunkIndex);
        } else if (op < 88) {
            // Non-resident, possibly outside any range seen so far.
            std::size_t r = rng.uniformInt(ranges + 2);
            std::uint64_t c = rng.uniformInt(chunksPerRange * 2);
            if (!resident.count({r, c})) {
                ref.touch(r, c);
                dev.touch(r, c);
            }
        } else if (op < 95) {
            if (!tracking || order.empty())
                continue;
            lastVictim = evictBoth(step);
        } else if (op < 97) {
            ref.clear();
            dev.clear();
            resident.clear();
            if (rng.chance(0.5))
                dev.reserveRange(rng.uniformInt(ranges), chunksPerRange,
                                 kib(64));
        } else {
            tracking = !tracking;
            ref.setLruTracking(tracking);
            dev.setLruTracking(tracking);
        }
        sameState(step);
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_GT(ref.evictions(), 50u) << "seed " << seed;
}

TEST(DeviceMemory, LruOrderMatchesDequeOracle)
{
    for (std::uint64_t seed : {1, 2, 3, 17, 99, 1042})
        runLruOracle(seed);
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
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next()) << "step " << i;
}

} // namespace
} // namespace uvmasync
