/**
 * @file
 * Tests for the set-associative cache model, including the miss-rate
 * properties the GPU L1 model relies on.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace uvmasync
{
namespace
{

SetAssocCache
smallCache()
{
    // 4 KiB, 32 B lines, 4 ways -> 32 sets.
    return SetAssocCache("l1", kib(4), 32, 4);
}

TEST(Cache, GeometryDerivation)
{
    SetAssocCache c = smallCache();
    EXPECT_EQ(c.sets(), 32u);
    EXPECT_EQ(c.lineBytes(), 32u);
    EXPECT_EQ(c.ways(), 4u);
}

TEST(Cache, ColdMissThenHit)
{
    SetAssocCache c = smallCache();
    EXPECT_FALSE(c.access(0x100, false));
    EXPECT_TRUE(c.access(0x100, false));
    EXPECT_TRUE(c.access(0x11f, false)); // same 32 B line
    EXPECT_FALSE(c.access(0x120, false)); // next line
}

TEST(Cache, StoreWriteAllocates)
{
    SetAssocCache c = smallCache();
    EXPECT_FALSE(c.access(0x200, true));
    EXPECT_TRUE(c.access(0x200, false));
    EXPECT_EQ(c.stats().storeMisses, 1u);
    EXPECT_EQ(c.stats().loadHits, 1u);
}

TEST(Cache, LruEvictionOrder)
{
    SetAssocCache c = smallCache();
    // Five lines mapping to the same set (stride = sets * line).
    Addr stride = 32 * 32;
    for (Addr i = 0; i < 5; ++i)
        c.access(i * stride, false);
    // Line 0 was least recently used and must be gone.
    EXPECT_FALSE(c.access(0, false));
    // Line 4 is still resident.
    EXPECT_TRUE(c.access(4 * stride, false));
}

TEST(Cache, TouchRefreshesLru)
{
    SetAssocCache c = smallCache();
    Addr stride = 32 * 32;
    for (Addr i = 0; i < 4; ++i)
        c.access(i * stride, false);
    c.access(0, false); // refresh line 0
    c.access(4 * stride, false); // evicts line 1, not 0
    EXPECT_TRUE(c.access(0, false));
    EXPECT_FALSE(c.access(1 * stride, false));
}

TEST(Cache, SequentialStreamMissRateIsElementOverLine)
{
    SetAssocCache c("l1", kib(64), 32, 4);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        c.access(static_cast<Addr>(i) * 4, false);
    // 4 B elements on 32 B lines: 1 miss per 8 accesses.
    EXPECT_NEAR(c.stats().loadMissRate(), 0.125, 0.001);
}

TEST(Cache, WorkingSetFitsAfterWarmup)
{
    SetAssocCache c("l1", kib(64), 32, 4);
    // 32 KiB working set walked repeatedly fits in 64 KiB.
    for (int pass = 0; pass < 4; ++pass) {
        for (Addr a = 0; a < kib(32); a += 32)
            c.access(a, false);
    }
    // Only the first pass misses.
    double expected = 0.25;
    EXPECT_NEAR(static_cast<double>(c.stats().loadMisses) /
                    static_cast<double>(c.stats().loads()),
                expected, 0.01);
}

TEST(Cache, ThrashingWorkingSetKeepsMissing)
{
    SetAssocCache c("l1", kib(4), 32, 4);
    // 64 KiB streamed repeatedly through a 4 KiB cache.
    std::uint64_t misses_before = 0;
    for (int pass = 0; pass < 3; ++pass) {
        for (Addr a = 0; a < kib(64); a += 32)
            c.access(a, false);
        std::uint64_t misses = c.stats().loadMisses;
        EXPECT_GT(misses, misses_before);
        misses_before = misses;
    }
    EXPECT_GT(c.stats().loadMissRate(), 0.95);
}

TEST(CacheStats, RatesHandleZeroAccesses)
{
    CacheStats s;
    EXPECT_DOUBLE_EQ(s.loadMissRate(), 0.0);
    EXPECT_DOUBLE_EQ(s.storeMissRate(), 0.0);
}

TEST(CacheDeathTest, BadGeometryPanics)
{
    EXPECT_DEATH(SetAssocCache("bad", 1000, 32, 4), "divisible");
}

/** Property: miss rate always lands in [0, 1] across geometries. */
class CacheGeometryTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheGeometryTest, MissRateInRange)
{
    auto [capacityKib, ways] = GetParam();
    SetAssocCache c("l1", kib(static_cast<std::uint64_t>(capacityKib)),
                    32, static_cast<unsigned>(ways));
    for (Addr a = 0; a < kib(128); a += 16)
        c.access(a * 7 % kib(256), a % 3 == 0);
    EXPECT_GE(c.stats().loadMissRate(), 0.0);
    EXPECT_LE(c.stats().loadMissRate(), 1.0);
    EXPECT_GE(c.stats().storeMissRate(), 0.0);
    EXPECT_LE(c.stats().storeMissRate(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Combine(::testing::Values(4, 16, 64, 160),
                       ::testing::Values(1, 2, 4, 8)));

} // namespace
} // namespace uvmasync
