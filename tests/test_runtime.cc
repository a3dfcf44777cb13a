/**
 * @file
 * Tests for the runtime layer: allocation cost model, noise model,
 * job helpers and end-to-end Device execution semantics.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "runtime/device.hh"
#include "runtime/noise_model.hh"
#include "stat_of.hh"

namespace uvmasync
{
namespace
{

// --- Allocator --------------------------------------------------------

TEST(Allocator, ContextInitChargedOnce)
{
    Allocator alloc("a", AllocatorConfig{});
    Tick first = alloc.deviceAlloc(mib(1));
    Tick second = alloc.deviceAlloc(mib(1));
    EXPECT_GT(first, second);
    EXPECT_GE(first - second, AllocatorConfig{}.contextInit);
}

TEST(Allocator, PerGiBSlope)
{
    Allocator alloc("a", AllocatorConfig{});
    alloc.deviceAlloc(0); // consume context init
    Tick one = alloc.deviceAlloc(gib(1));
    Tick two = alloc.deviceAlloc(gib(2));
    EXPECT_NEAR(static_cast<double>(two - one),
                static_cast<double>(AllocatorConfig{}.deviceAllocPerGiB),
                1e6);
}

TEST(Allocator, ManagedFreeCostsMoreThanAlloc)
{
    Allocator alloc("a", AllocatorConfig{});
    alloc.deviceAlloc(0);
    EXPECT_GT(alloc.managedFree(gib(4)), alloc.managedAlloc(gib(4)));
}

TEST(Allocator, JobAccountingAndReset)
{
    Allocator alloc("a", AllocatorConfig{});
    alloc.deviceAlloc(mib(1));
    EXPECT_GT(alloc.jobAllocTime(), 0u);
    EXPECT_EQ(statOf(alloc, "calls"), 1u);
    alloc.beginJob();
    EXPECT_EQ(alloc.jobAllocTime(), 0u);
    // Context stays initialised across jobs.
    EXPECT_LT(alloc.deviceAlloc(mib(1)),
              AllocatorConfig{}.contextInit);
    alloc.resetContext();
    EXPECT_GT(alloc.deviceAlloc(mib(1)),
              AllocatorConfig{}.contextInit);
}

// --- Time breakdown ----------------------------------------------------

TEST(TimeBreakdown, SumAndScale)
{
    TimeBreakdown b{1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(b.overallPs(), 6.0);
    TimeBreakdown c = b * 2.0;
    EXPECT_DOUBLE_EQ(c.transferPs, 4.0);
    b += c;
    EXPECT_DOUBLE_EQ(b.overallPs(), 18.0);
}

// --- Noise model --------------------------------------------------------

TEST(NoiseModel, PreservesMeanApproximately)
{
    HostMemory host("host", HostMemoryConfig{});
    NoiseModel noise(NoiseConfig{}, host);
    TimeBreakdown clean{1e12, 1e12, 1e12};
    SampleSet overall;
    for (int i = 0; i < 500; ++i) {
        Rng rng(static_cast<std::uint64_t>(i));
        overall.add(noise.perturb(clean, gib(1), rng).overallPs());
    }
    // Mean shifts only by the additive system overhead.
    double overhead =
        static_cast<double>(NoiseConfig{}.systemOverheadMean);
    EXPECT_NEAR(overall.mean(), clean.overallPs() + overhead,
                clean.overallPs() * 0.02);
}

TEST(NoiseModel, StraddlingFootprintIsNoisier)
{
    // The Figure 5/6 effect: Mega-scale footprints have a larger
    // coefficient of variation than Large/Super ones.
    HostMemory host("host", HostMemoryConfig{});
    NoiseModel noise(NoiseConfig{}, host);
    TimeBreakdown clean{1e12, 5e12, 1e11};
    SampleSet small, big;
    for (int i = 0; i < 300; ++i) {
        Rng r1(static_cast<std::uint64_t>(i));
        Rng r2(static_cast<std::uint64_t>(i));
        small.add(noise.perturb(clean, gib(4), r1).overallPs());
        big.add(noise.perturb(clean, gib(32), r2).overallPs());
    }
    EXPECT_GT(big.cv(), small.cv() * 1.5);
}

TEST(NoiseModel, SmallJobsHaveLargerRelativeNoise)
{
    HostMemory host("host", HostMemoryConfig{});
    NoiseModel noise(NoiseConfig{}, host);
    TimeBreakdown tiny{1e10, 1e10, 1e9};   // ~20 ms job
    TimeBreakdown large{1e12, 1e12, 1e11}; // ~2 s job
    SampleSet tinySet, largeSet;
    for (int i = 0; i < 300; ++i) {
        Rng r1(static_cast<std::uint64_t>(i));
        Rng r2(static_cast<std::uint64_t>(i));
        tinySet.add(noise.perturb(tiny, mib(1), r1).overallPs());
        largeSet.add(noise.perturb(large, gib(4), r2).overallPs());
    }
    EXPECT_GT(tinySet.cv(), largeSet.cv());
}

// --- Job helpers ---------------------------------------------------------

Job
twoBufferJob()
{
    Job job;
    job.name = "test";
    job.buffers = {
        JobBuffer{"in", mib(64), true, false},
        JobBuffer{"out", mib(32), false, true},
    };
    KernelDescriptor kd = makeStreamKernel("k", 256, 256, mib(64),
                                           kib(16), 4, 4.0, 2.0, 0.5,
                                           0.5);
    kd.buffers = {
        KernelBufferUse{0, AccessPattern::Sequential, true, false, 1.0,
                        true},
        KernelBufferUse{1, AccessPattern::Sequential, false, true, 1.0,
                        true},
    };
    job.kernels = {kd};
    return job;
}

TEST(Job, FootprintHelpers)
{
    Job job = twoBufferJob();
    EXPECT_EQ(job.footprint(), mib(96));
    EXPECT_EQ(job.hostInitBytes(), mib(64));
    EXPECT_EQ(job.hostConsumedBytes(), mib(32));
    EXPECT_EQ(job.launchCount(), 1u);
    EXPECT_EQ(job.bufferSizes(),
              (std::vector<Bytes>{mib(64), mib(32)}));
}

TEST(Job, LaunchCountWithRepeats)
{
    Job job = twoBufferJob();
    job.kernels.push_back(job.kernels[0]);
    job.sequenceRepeats = 5;
    EXPECT_EQ(job.launchCount(), 10u);
}

// --- Device end-to-end -----------------------------------------------------

TEST(Device, StandardModeMovesDeclaredBytes)
{
    Device dev(SystemConfig::a100Epyc());
    RunResult res = dev.run(twoBufferJob(), TransferMode::Standard);
    EXPECT_EQ(res.counters.bytesH2d, mib(64));
    EXPECT_EQ(res.counters.bytesD2h, mib(32));
    EXPECT_GT(res.breakdown.allocPs, 0.0);
    EXPECT_GT(res.breakdown.transferPs, 0.0);
    EXPECT_GT(res.breakdown.kernelPs, 0.0);
}

TEST(Device, UvmMovesOnlyTouchedPlusWriteback)
{
    Device dev(SystemConfig::a100Epyc());
    Job job = twoBufferJob();
    RunResult res = dev.run(job, TransferMode::Uvm);
    // H2D: only the host-initialised input.
    EXPECT_LE(res.counters.bytesH2d, mib(64) + mib(1));
    // D2H: the written, host-consumed output.
    EXPECT_GE(res.counters.bytesD2h, mib(31));
    EXPECT_GT(res.counters.faults, 0u);
}

TEST(Device, PrefetchModeHasNoFaults)
{
    Device dev(SystemConfig::a100Epyc());
    RunResult res = dev.run(twoBufferJob(),
                            TransferMode::UvmPrefetch);
    EXPECT_EQ(res.counters.faults, 0u);
}

TEST(Device, DeterministicAcrossRuns)
{
    Device dev(SystemConfig::a100Epyc());
    RunResult a = dev.run(twoBufferJob(), TransferMode::UvmPrefetch);
    RunResult b = dev.run(twoBufferJob(), TransferMode::UvmPrefetch);
    EXPECT_DOUBLE_EQ(a.breakdown.overallPs(),
                     b.breakdown.overallPs());
    EXPECT_EQ(a.counters.faults, b.counters.faults);
}

TEST(Device, PrefetchEachLaunchChurnsTransfers)
{
    Job job = twoBufferJob();
    job.sequenceRepeats = 8;

    Device dev(SystemConfig::a100Epyc());
    job.prefetchEachLaunch = false;
    double quiet = dev.run(job, TransferMode::UvmPrefetch)
                       .breakdown.transferPs;
    job.prefetchEachLaunch = true;
    double churny = dev.run(job, TransferMode::UvmPrefetch)
                        .breakdown.transferPs;
    EXPECT_GT(churny, quiet);
}

TEST(Device, CountersAreKernelWeighted)
{
    Device dev(SystemConfig::a100Epyc());
    RunResult res = dev.run(twoBufferJob(), TransferMode::Standard);
    EXPECT_GE(res.counters.l1LoadMissRate, 0.0);
    EXPECT_LE(res.counters.l1LoadMissRate, 1.0);
    EXPECT_GT(res.counters.occupancy, 0.0);
    EXPECT_EQ(res.counters.launches, 1u);
}

TEST(Device, StatsSnapshotIncludesComponents)
{
    Device dev(SystemConfig::a100Epyc());
    dev.run(twoBufferJob(), TransferMode::Uvm);
    StatMap stats = dev.stats();
    EXPECT_TRUE(stats.count("pcie.bytes_h2d"));
    EXPECT_TRUE(stats.count("pt.faults"));
    EXPECT_TRUE(stats.count("alloc.calls"));
}

} // namespace
} // namespace uvmasync
