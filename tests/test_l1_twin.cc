/**
 * @file
 * Twin-world exactness of the L1 kernel: the flat, division-free
 * SetAssocCache and StreamGenerator against the nested-vector,
 * modulo-based references in l1_reference.hh, on randomized inputs.
 * Every access must hit or miss identically with identical
 * statistics, and every stream step must return the same address.
 * The Divider is checked against / and % directly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/divider.hh"
#include "common/rng.hh"
#include "l1_reference.hh"
#include "mem/access_pattern.hh"
#include "mem/cache.hh"

namespace uvmasync
{
namespace
{

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

void
expectDivides(const Divider &div, std::uint64_t n)
{
    std::uint64_t d = div.divisor();
    ASSERT_EQ(div.quotient(n), n / d) << n << " / " << d;
    // The cache takes the set as n - d * (n / d).
    ASSERT_EQ(n - d * div.quotient(n), n % d) << n << " % " << d;
    ASSERT_EQ(div.remainder(n), n % d) << n << " % " << d;
}

TEST(Divider, EdgeDivisorsAndNumerators)
{
    const std::uint64_t divisors[] = {
        1, 2, 3, 7, 1126, 1280,
        (std::uint64_t{1} << 32) - 1, (std::uint64_t{1} << 32) + 1,
        std::uint64_t{1} << 63, kMax,
    };
    for (std::uint64_t d : divisors) {
        Divider div(d);
        for (std::uint64_t n : {std::uint64_t{0}, d - 1, d, d + 1,
                                kMax - 1, kMax})
            expectDivides(div, n);
    }
}

TEST(Divider, RandomDivisorsAndNumerators)
{
    Rng rng(2019);
    for (int i = 0; i < 2000; ++i) {
        // Divisors of every bit width, numerators of every width.
        std::uint64_t d = rng() >> rng.uniformInt(64);
        if (d == 0)
            d = 1;
        Divider div(d);
        for (int j = 0; j < 100; ++j)
            expectDivides(div, rng() >> rng.uniformInt(64));
    }
}

/** An address that stresses one geometry: reuse, conflicts, extremes. */
Addr
nextAddr(Rng &rng, Bytes lineBytes, std::uint64_t sets, unsigned ways)
{
    std::uint64_t span = lineBytes * sets * ways;
    switch (rng.uniformInt(std::uint64_t{5})) {
      case 0: // a working set a few times the capacity
        return rng.uniformInt(4 * span);
      case 1: // lines that all map to set 0
        return rng.uniformInt(std::uint64_t{2} * ways + 1) * lineBytes *
                   sets +
               rng.uniformInt(lineBytes);
      case 2: // the top of the address space
        return kMax - rng.uniformInt(4 * span);
      case 3: // buffer-id-tagged bases, as simulateL1 issues them
        return (rng.uniformInt(std::uint64_t{4}) << 40) +
               rng.uniformInt(2 * span);
      default:
        return rng();
    }
}

void
expectTwinCache(Bytes lineBytes, std::uint64_t sets, unsigned ways,
                std::uint64_t seed, int accesses)
{
    Bytes capacity = lineBytes * sets * ways;
    SetAssocCache fast("l1", capacity, lineBytes, ways);
    reference::SetAssocCache ref(capacity, lineBytes, ways);
    ASSERT_EQ(fast.sets(), sets);
    Rng rng(seed);
    for (int i = 0; i < accesses; ++i) {
        Addr addr = nextAddr(rng, lineBytes, sets, ways);
        bool isWrite = rng.chance(0.3);
        ASSERT_EQ(fast.access(addr, isWrite), ref.access(addr, isWrite))
            << "line " << lineBytes << " sets " << sets << " ways "
            << ways << " access " << i << " addr " << addr;
    }
    const CacheStats &a = fast.stats();
    const CacheStats &b = ref.stats();
    EXPECT_EQ(a.loadHits, b.loadHits);
    EXPECT_EQ(a.loadMisses, b.loadMisses);
    EXPECT_EQ(a.storeHits, b.storeHits);
    EXPECT_EQ(a.storeMisses, b.storeMisses);
}

TEST(L1Twin, CacheMatchesReferenceAcrossGeometries)
{
    // 1, 2, primes, other non-powers of two (1126 and 1280 are the
    // default-carveout L1 under uvm and standard) and powers of two.
    const std::uint64_t setCounts[] = {1,  2,  3,   5,    7,    31,
                                       97, 251, 1021, 6,    12,  100,
                                       736, 1126, 1280, 4,  64,  1024};
    std::uint64_t seed = 1;
    for (Bytes lineBytes : {Bytes{32}, Bytes{1}, Bytes{24}}) {
        for (unsigned ways = 1; ways <= 16; ++ways) {
            for (std::uint64_t sets : setCounts)
                expectTwinCache(lineBytes, sets, ways, ++seed, 3000);
        }
    }
}

TEST(L1Twin, CacheTopAddressIsAColdMissWithOneByteLines)
{
    // Line size 1 and one set make the tag of 2^64 - 1 equal to the
    // invalid-way sentinel; it must still miss, then hit.
    SetAssocCache c("l1", 4, 1, 4);
    EXPECT_FALSE(c.access(kMax, false));
    EXPECT_TRUE(c.access(kMax, false));
    expectTwinCache(1, 1, 4, 7, 20000);
}

TEST(L1Twin, LongRunCacheMatchesReference)
{
    // The simulated L1 geometry under uvm, long enough for every
    // set to evict many times.
    expectTwinCache(32, 1126, 4, 99, 400000);
}

TEST(L1Twin, StreamsMatchReferenceAcrossEveryWrap)
{
    for (AccessPattern p : allAccessPatterns) {
        for (std::uint64_t elements :
             {1, 15, 16, 17, 1023, 1024, 1025}) {
            for (Bytes elementBytes : {Bytes{4}, Bytes{12}}) {
                Bytes footprint = elements * elementBytes;
                StreamGenerator fast(p, footprint, elementBytes, 5);
                reference::StreamGenerator ref(p, footprint,
                                               elementBytes, 5);
                for (int i = 0; i < 1000000; ++i) {
                    ASSERT_EQ(fast.next(), ref.next())
                        << accessPatternName(p) << " over " << elements
                        << " elements of " << elementBytes
                        << " B, step " << i;
                }
            }
        }
    }
}

TEST(L1Twin, StreamsMatchReferenceOnRaggedFootprints)
{
    // Footprints that are not a multiple of the element size, as
    // simulateL1's byte footprints can be.
    Rng rng(13);
    for (int i = 0; i < 60; ++i) {
        AccessPattern p = allAccessPatterns[i % allAccessPatterns.size()];
        Bytes footprint = 4 + rng.uniformInt(std::uint64_t{1} << 20);
        StreamGenerator fast(p, footprint, 4, i);
        reference::StreamGenerator ref(p, footprint, 4, i);
        for (int step = 0; step < 20000; ++step)
            ASSERT_EQ(fast.next(), ref.next())
                << accessPatternName(p) << " footprint " << footprint
                << " step " << step;
    }
}

} // namespace
} // namespace uvmasync
