/**
 * @file
 * Property sweep of the L1 cache model across every (access pattern,
 * transfer mode) pair: rates stay in range, determinism holds, and
 * the async staging transform never *worsens* the store behaviour of
 * staged buffers.
 */

#include <gtest/gtest.h>

#include "gpu/cache_model.hh"

namespace uvmasync
{
namespace
{

const AccessPattern kPatterns[] = {
    AccessPattern::Sequential, AccessPattern::Strided,
    AccessPattern::Tiled,      AccessPattern::Random,
    AccessPattern::Irregular,  AccessPattern::Broadcast,
};

KernelDescriptor
kernelWith(AccessPattern pattern)
{
    KernelDescriptor kd = makeStreamKernel(
        "sweep", 1024, 256, mib(512), kib(16), 4, 4.0, 4.0, 1.0,
        0.5);
    kd.buffers = {
        KernelBufferUse{0, pattern, true, true, 1.0, true},
    };
    return kd;
}

class CacheModelSweep
    : public ::testing::TestWithParam<
          std::tuple<AccessPattern, TransferMode>>
{
};

TEST_P(CacheModelSweep, RatesInRangeAndDeterministic)
{
    auto [pattern, mode] = GetParam();
    GpuConfig gpu;
    KernelDescriptor kd = kernelWith(pattern);
    CacheModelResult a =
        simulateL1(gpu, kd, {mib(512)}, mode, kib(32), 7);
    CacheModelResult b =
        simulateL1(gpu, kd, {mib(512)}, mode, kib(32), 7);

    EXPECT_GE(a.loadMissRate, 0.0);
    EXPECT_LE(a.loadMissRate, 1.0);
    EXPECT_GE(a.storeMissRate, 0.0);
    EXPECT_LE(a.storeMissRate, 1.0);
    EXPECT_GT(a.loads + a.stores, 0u);

    EXPECT_DOUBLE_EQ(a.loadMissRate, b.loadMissRate);
    EXPECT_DOUBLE_EQ(a.storeMissRate, b.storeMissRate);
}

/** The scatter patterns under the async-copy modes: the pairs whose
 * stores the staging transform must not make worse. Dense patterns
 * are already coalesced (and strided stores may ride lines warmed by
 * the sync load stream), so they are not checked. */
class CacheModelScatterSweep
    : public ::testing::TestWithParam<
          std::tuple<AccessPattern, TransferMode>>
{
};

TEST_P(CacheModelScatterSweep, AsyncStoresNeverWorseForScatterPatterns)
{
    auto [pattern, mode] = GetParam();
    ASSERT_TRUE(usesAsyncCopy(mode));
    GpuConfig gpu;
    KernelDescriptor kd = kernelWith(pattern);
    CacheModelResult sync = simulateL1(gpu, kd, {mib(512)},
                                       TransferMode::Standard,
                                       kib(32), 7);
    CacheModelResult async =
        simulateL1(gpu, kd, {mib(512)}, mode, kib(32), 7);
    // Shared-memory staging turns scatter stores into coalesced
    // writebacks; store misses must not get worse.
    EXPECT_LE(async.storeMissRate, sync.storeMissRate + 1e-9);
}

std::string
sweepName(const ::testing::TestParamInfo<
          std::tuple<AccessPattern, TransferMode>> &info)
{
    std::string id = accessPatternName(std::get<0>(info.param));
    id += "_";
    id += transferModeName(std::get<1>(info.param));
    return id;
}

std::vector<TransferMode>
asyncCopyModes()
{
    std::vector<TransferMode> modes;
    for (TransferMode mode : allTransferModes) {
        if (usesAsyncCopy(mode))
            modes.push_back(mode);
    }
    return modes;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CacheModelSweep,
    ::testing::Combine(::testing::ValuesIn(kPatterns),
                       ::testing::ValuesIn(
                           std::vector<TransferMode>(
                               allTransferModes.begin(),
                               allTransferModes.end()))),
    sweepName);

INSTANTIATE_TEST_SUITE_P(
    Grid, CacheModelScatterSweep,
    ::testing::Combine(::testing::Values(AccessPattern::Random,
                                         AccessPattern::Irregular),
                       ::testing::ValuesIn(asyncCopyModes())),
    sweepName);

} // namespace
} // namespace uvmasync
