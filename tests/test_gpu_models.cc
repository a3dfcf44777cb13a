/**
 * @file
 * Tests for occupancy calculation, instruction mix, the kernel
 * descriptor builder and the L1 cache model.
 */

#include <gtest/gtest.h>

#include "gpu/cache_model.hh"
#include "gpu/gpu_config.hh"
#include "gpu/instruction_mix.hh"
#include "gpu/kernel_descriptor.hh"
#include "gpu/occupancy.hh"
#include "gpu/transfer_mode.hh"

namespace uvmasync
{
namespace
{

// --- Transfer modes --------------------------------------------------

TEST(TransferMode, NamesRoundTrip)
{
    for (TransferMode m : allTransferModes) {
        TransferMode parsed;
        ASSERT_TRUE(parseTransferMode(transferModeName(m), parsed));
        EXPECT_EQ(parsed, m);
    }
    TransferMode dummy;
    EXPECT_FALSE(parseTransferMode("bogus", dummy));
}

TEST(TransferMode, FeaturePredicates)
{
    EXPECT_FALSE(usesUvm(TransferMode::Standard));
    EXPECT_FALSE(usesUvm(TransferMode::Async));
    EXPECT_TRUE(usesUvm(TransferMode::Uvm));
    EXPECT_TRUE(usesPrefetch(TransferMode::UvmPrefetch));
    EXPECT_FALSE(usesPrefetch(TransferMode::Uvm));
    EXPECT_TRUE(usesAsyncCopy(TransferMode::Async));
    EXPECT_TRUE(usesAsyncCopy(TransferMode::UvmPrefetchAsync));
    EXPECT_FALSE(usesAsyncCopy(TransferMode::UvmPrefetch));
}

// --- Occupancy -------------------------------------------------------

TEST(Occupancy, ThreadLimited)
{
    GpuConfig gpu;
    OccupancyResult res = computeOccupancy(gpu, 1024, 0, kib(32));
    EXPECT_EQ(res.blocksPerSm, 2u); // 2048 threads / 1024
    EXPECT_EQ(res.warpsPerSm, 64u);
    EXPECT_DOUBLE_EQ(res.occupancy, 1.0);
}

TEST(Occupancy, BlockCountLimited)
{
    GpuConfig gpu;
    OccupancyResult res = computeOccupancy(gpu, 32, 0, kib(32));
    EXPECT_EQ(res.blocksPerSm, gpu.maxBlocksPerSm);
    EXPECT_STREQ(res.limiter, "blocks");
}

TEST(Occupancy, SharedMemoryLimited)
{
    GpuConfig gpu;
    OccupancyResult res = computeOccupancy(gpu, 256, kib(16), kib(32));
    EXPECT_EQ(res.blocksPerSm, 2u);
    EXPECT_STREQ(res.limiter, "shmem");
}

TEST(Occupancy, OversizedSharedShrinksTiles)
{
    GpuConfig gpu;
    OccupancyResult res = computeOccupancy(gpu, 256, kib(64), kib(16));
    EXPECT_EQ(res.blocksPerSm, 1u);
    EXPECT_DOUBLE_EQ(res.tileScale, 0.25);
}

TEST(Occupancy, WarpsCappedAtHardwareMax)
{
    GpuConfig gpu;
    OccupancyResult res = computeOccupancy(gpu, 64, 0, kib(32));
    EXPECT_LE(res.warpsPerSm, gpu.maxWarpsPerSm);
}

TEST(OccupancyDeathTest, OversizedBlockPanics)
{
    GpuConfig gpu;
    EXPECT_DEATH(computeOccupancy(gpu, 4096, 0, kib(32)),
                 "exceeds SM capacity");
}

/** Property sweep: occupancy result is always consistent. */
class OccupancySweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(OccupancySweep, InternallyConsistent)
{
    auto [threads, sharedKib] = GetParam();
    GpuConfig gpu;
    OccupancyResult res = computeOccupancy(
        gpu, static_cast<std::uint32_t>(threads),
        kib(static_cast<std::uint64_t>(sharedKib)), kib(32));
    EXPECT_GE(res.blocksPerSm, 1u);
    EXPECT_LE(res.blocksPerSm, gpu.maxBlocksPerSm);
    EXPECT_GT(res.occupancy, 0.0);
    EXPECT_LE(res.occupancy, 1.0);
    EXPECT_GT(res.tileScale, 0.0);
    EXPECT_LE(res.tileScale, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OccupancySweep,
    ::testing::Combine(::testing::Values(32, 128, 256, 512, 1024),
                       ::testing::Values(0, 4, 16, 32)));

// --- Instruction mix -------------------------------------------------

TEST(InstrMix, Arithmetic)
{
    InstrMix a{1.0, 2.0, 3.0, 4.0};
    InstrMix b{10.0, 20.0, 30.0, 40.0};
    InstrMix scaled = a * 2.0;
    EXPECT_DOUBLE_EQ(scaled.fp, 4.0);
    a += b;
    EXPECT_DOUBLE_EQ(a.total(), 110.0);
    EXPECT_DOUBLE_EQ(a.memory, 11.0);
}

// --- Kernel descriptor builder ---------------------------------------

TEST(KernelDescriptor, StreamBuilderCoversTraffic)
{
    KernelDescriptor kd = makeStreamKernel(
        "k", 1024, 256, gib(1), kib(32), 4, 10.0, 5.0, 1.0, 0.5);
    EXPECT_GE(kd.tilesPerBlock * kd.tileLoadBytes * kd.gridBlocks,
              gib(1));
    EXPECT_EQ(kd.tileLoadBytes, kib(32));
    EXPECT_GT(kd.memPerTile, 0.0);
    EXPECT_GT(kd.fpPerTile, kd.intPerTile); // 10 vs 5 per element
    EXPECT_NEAR(kd.tileStoreBytes, kib(16), 1.0);
}

TEST(KernelDescriptor, LoadBytesHelpers)
{
    KernelDescriptor kd;
    kd.gridBlocks = 10;
    kd.tilesPerBlock = 4;
    kd.tileLoadBytes = kib(8);
    EXPECT_EQ(kd.loadBytesPerBlock(), kib(32));
    EXPECT_EQ(kd.totalLoadBytes(), kib(320));
}

// --- Cache model ------------------------------------------------------

KernelDescriptor
cacheKernel(AccessPattern pattern)
{
    KernelDescriptor kd = makeStreamKernel(
        "k", 1024, 256, gib(1), kib(16), 4, 4.0, 4.0, 1.0, 0.5);
    kd.buffers = {
        KernelBufferUse{0, pattern, true, true, 1.0, true},
    };
    return kd;
}

TEST(CacheModel, SequentialHasLowMissRate)
{
    GpuConfig gpu;
    auto res = simulateL1(gpu, cacheKernel(AccessPattern::Sequential),
                          {gib(1)}, TransferMode::Standard, kib(32),
                          1);
    EXPECT_GT(res.loads, 0u);
    EXPECT_LT(res.loadMissRate, 0.2);
}

TEST(CacheModel, RandomMissesMoreThanSequential)
{
    GpuConfig gpu;
    auto seq = simulateL1(gpu, cacheKernel(AccessPattern::Sequential),
                          {gib(1)}, TransferMode::Standard, kib(32),
                          1);
    auto rnd = simulateL1(gpu, cacheKernel(AccessPattern::Random),
                          {gib(1)}, TransferMode::Standard, kib(32),
                          1);
    EXPECT_GT(rnd.loadMissRate, seq.loadMissRate * 2);
}

TEST(CacheModel, AsyncReducesIrregularMissRates)
{
    // The Figure 10 lud effect: staging through shared memory slashes
    // both load and store miss rates for irregular kernels.
    GpuConfig gpu;
    auto sync = simulateL1(gpu, cacheKernel(AccessPattern::Irregular),
                           {gib(1)}, TransferMode::Standard, kib(32),
                           1);
    auto async = simulateL1(gpu, cacheKernel(AccessPattern::Irregular),
                            {gib(1)}, TransferMode::Async, kib(32), 1);
    EXPECT_LT(async.loadMissRate, sync.loadMissRate);
    EXPECT_LT(async.storeMissRate, sync.storeMissRate);
}

TEST(CacheModel, SmallerL1RaisesMissRate)
{
    GpuConfig gpu;
    auto big = simulateL1(gpu, cacheKernel(AccessPattern::Tiled),
                          {gib(1)}, TransferMode::Standard, kib(8),
                          1);
    auto small = simulateL1(gpu, cacheKernel(AccessPattern::Tiled),
                            {gib(1)}, TransferMode::Standard,
                            kib(160), 1);
    // kib(160) carveout leaves almost no L1.
    EXPECT_GE(small.loadMissRate, big.loadMissRate);
}

TEST(CacheModel, DeterministicPerSeed)
{
    GpuConfig gpu;
    auto a = simulateL1(gpu, cacheKernel(AccessPattern::Irregular),
                        {gib(1)}, TransferMode::Uvm, kib(32), 7);
    auto b = simulateL1(gpu, cacheKernel(AccessPattern::Irregular),
                        {gib(1)}, TransferMode::Uvm, kib(32), 7);
    EXPECT_DOUBLE_EQ(a.loadMissRate, b.loadMissRate);
    EXPECT_DOUBLE_EQ(a.storeMissRate, b.storeMissRate);
}

TEST(CacheModel, EmptyBufferListIsZero)
{
    GpuConfig gpu;
    KernelDescriptor kd;
    auto res = simulateL1(gpu, kd, {}, TransferMode::Standard,
                          kib(32), 1);
    EXPECT_EQ(res.loads, 0u);
    EXPECT_DOUBLE_EQ(res.loadMissRate, 0.0);
}

} // namespace
} // namespace uvmasync
