/**
 * @file
 * Tests for the key=value config store, the SystemConfig loader, the
 * declarative job loader and the strict fault-injection plan loader.
 */

#include <gtest/gtest.h>

#include "common/kv_config.hh"
#include "inject/inject_plan.hh"
#include "runtime/config_loader.hh"
#include "runtime/device.hh"
#include "workloads/job_loader.hh"
#include "workloads/registry.hh"

namespace uvmasync
{
namespace
{

// --- KvConfig ----------------------------------------------------------

TEST(KvConfig, ParsesKeysAndSections)
{
    KvConfig kv = KvConfig::fromString(
        "top = 1\n"
        "[gpu]\n"
        "sm_count = 108  # trailing comment\n"
        "clock_mhz = 1410.5\n"
        "\n"
        "[pcie]\n"
        "raw_gbps = 26\n");
    EXPECT_EQ(kv.keys().size(), 4u);
    EXPECT_EQ(kv.getInt("top", 0), 1);
    EXPECT_EQ(kv.getInt("gpu.sm_count", 0), 108);
    EXPECT_DOUBLE_EQ(kv.getDouble("gpu.clock_mhz", 0), 1410.5);
    EXPECT_TRUE(kv.has("pcie.raw_gbps"));
    EXPECT_FALSE(kv.has("pcie.bogus"));
}

TEST(KvConfig, DefaultsForMissingKeys)
{
    KvConfig kv;
    EXPECT_EQ(kv.getString("x", "fallback"), "fallback");
    EXPECT_EQ(kv.getInt("x", 7), 7);
    EXPECT_DOUBLE_EQ(kv.getDouble("x", 2.5), 2.5);
    EXPECT_TRUE(kv.getBool("x", true));
}

TEST(KvConfig, BooleanForms)
{
    KvConfig kv = KvConfig::fromString(
        "a = true\nb = 0\nc = yes\nd = no\n");
    EXPECT_TRUE(kv.getBool("a", false));
    EXPECT_FALSE(kv.getBool("b", true));
    EXPECT_TRUE(kv.getBool("c", false));
    EXPECT_FALSE(kv.getBool("d", true));
}

TEST(KvConfig, LaterKeysOverride)
{
    KvConfig kv = KvConfig::fromString("a = 1\na = 2\n");
    EXPECT_EQ(kv.getInt("a", 0), 2);
}

TEST(KvConfig, SetOverrides)
{
    KvConfig kv;
    kv.set("k", "42");
    EXPECT_EQ(kv.getInt("k", 0), 42);
}

TEST(KvConfigDeathTest, MalformedInputsFatal)
{
    EXPECT_DEATH(KvConfig::fromString("no equals sign\n"),
                 "expected key");
    KvConfig kv = KvConfig::fromString("x = abc\n");
    EXPECT_DEATH(kv.getInt("x", 0), "not an integer");
    EXPECT_DEATH(kv.getDouble("x", 0), "not a number");
    EXPECT_DEATH(kv.getBool("x", false), "not a boolean");
    EXPECT_DEATH(KvConfig::fromFile("/nonexistent/path.ini"),
                 "cannot open");
}

// --- SystemConfig loader --------------------------------------------------

TEST(ConfigLoader, AppliesOverrides)
{
    KvConfig kv = KvConfig::fromString(
        "[gpu]\n"
        "sm_count = 80\n"
        "hbm_gbps = 900\n"
        "[pcie]\n"
        "raw_gbps = 52\n"
        "pageable_eff = 0.5\n"
        "[uvm]\n"
        "chunk_kib = 256\n"
        "demand_prefetcher = tree\n"
        "[hbm]\n"
        "capacity_gib = 16\n");
    SystemConfig cfg = applyConfig(SystemConfig::a100Epyc(), kv);
    EXPECT_EQ(cfg.gpu.smCount, 80u);
    EXPECT_DOUBLE_EQ(cfg.gpu.hbmBandwidth.gbps(), 900.0);
    EXPECT_DOUBLE_EQ(cfg.pcie.rawBandwidth.gbps(), 52.0);
    EXPECT_DOUBLE_EQ(cfg.pcie.efficiency[static_cast<std::size_t>(
                         TransferKind::PageableCopy)],
                     0.5);
    EXPECT_EQ(cfg.uvm.chunkBytes, kib(256));
    EXPECT_EQ(cfg.uvm.demandPrefetcher, PrefetcherKind::Tree);
    EXPECT_EQ(cfg.deviceMemoryBytes, gib(16));
}

TEST(ConfigLoader, UntouchedFieldsKeepDefaults)
{
    SystemConfig base = SystemConfig::a100Epyc();
    SystemConfig cfg = applyConfig(base, KvConfig::fromString(""));
    EXPECT_EQ(cfg.gpu.smCount, base.gpu.smCount);
    EXPECT_EQ(cfg.uvm.chunkBytes, base.uvm.chunkBytes);
    EXPECT_EQ(cfg.alloc.contextInit, base.alloc.contextInit);
}

TEST(ConfigLoaderDeathTest, UnknownKeyFatal)
{
    KvConfig kv = KvConfig::fromString("[gpu]\nsm_cuont = 80\n");
    EXPECT_DEATH(applyConfig(SystemConfig::a100Epyc(), kv),
                 "unknown config key");
}

// --- Job loader --------------------------------------------------------------

const char *kJobText =
    "[job]\n"
    "name = demo\n"
    "repeats = 3\n"
    "prefetch_each_launch = true\n"
    "[buffer.0]\n"
    "name = in\n"
    "mib = 64\n"
    "[buffer.1]\n"
    "name = out\n"
    "mib = 32\n"
    "host_init = false\n"
    "host_consumed = true\n"
    "[kernel.0]\n"
    "name = k0\n"
    "blocks = 1024\n"
    "threads = 128\n"
    "total_load_mib = 64\n"
    "shared_kib = 8\n"
    "flops_per_element = 6\n"
    "warps_to_saturate = 12\n"
    "buffers = 0:sequential:r, 1:irregular:w:0.5, "
    "0:random:r:1.0:nostage\n";

TEST(JobLoader, BuildsCompleteJob)
{
    Job job = jobFromConfig(KvConfig::fromString(kJobText));
    EXPECT_EQ(job.name, "demo");
    EXPECT_EQ(job.sequenceRepeats, 3u);
    EXPECT_TRUE(job.prefetchEachLaunch);

    ASSERT_EQ(job.buffers.size(), 2u);
    EXPECT_EQ(job.buffers[0].bytes, mib(64));
    EXPECT_TRUE(job.buffers[0].hostInit);
    EXPECT_FALSE(job.buffers[1].hostInit);
    EXPECT_TRUE(job.buffers[1].hostConsumed);

    ASSERT_EQ(job.kernels.size(), 1u);
    const KernelDescriptor &kd = job.kernels[0];
    EXPECT_EQ(kd.name, "k0");
    EXPECT_EQ(kd.gridBlocks, 1024u);
    EXPECT_EQ(kd.threadsPerBlock, 128u);
    EXPECT_DOUBLE_EQ(kd.warpsToSaturate, 12.0);

    ASSERT_EQ(kd.buffers.size(), 3u);
    EXPECT_EQ(kd.buffers[0].pattern, AccessPattern::Sequential);
    EXPECT_TRUE(kd.buffers[0].read);
    EXPECT_FALSE(kd.buffers[0].written);
    EXPECT_EQ(kd.buffers[1].pattern, AccessPattern::Irregular);
    EXPECT_TRUE(kd.buffers[1].written);
    EXPECT_DOUBLE_EQ(kd.buffers[1].touchedFraction, 0.5);
    EXPECT_FALSE(kd.buffers[2].stagedThroughShared);
}

TEST(JobLoader, LoadedJobExecutes)
{
    Job job = jobFromConfig(KvConfig::fromString(kJobText));
    Device device(SystemConfig::a100Epyc());
    for (TransferMode mode : allTransferModes) {
        RunResult run = device.run(job, mode);
        EXPECT_GT(run.breakdown.overallPs(), 0.0)
            << transferModeName(mode);
    }
}

TEST(JobLoaderDeathTest, RejectsMalformedDescriptions)
{
    EXPECT_DEATH(jobFromConfig(KvConfig::fromString("[job]\n"
                                                    "name = x\n")),
                 "no \\[buffer.0\\]");
    EXPECT_DEATH(
        jobFromConfig(KvConfig::fromString(
            "[buffer.0]\nname = b\nmib = 1\n[kernel.0]\nname = k\n"
            "buffers = 5:sequential:r\n")),
        "out of range");
    EXPECT_DEATH(
        jobFromConfig(KvConfig::fromString(
            "[buffer.0]\nname = b\nmib = 1\n[kernel.0]\nname = k\n"
            "buffers = 0:zigzag:r\n")),
        "unknown access pattern");
    EXPECT_DEATH(
        jobFromConfig(KvConfig::fromString(
            "[buffer.0]\nname = b\nmib = 1\n[kernel.0]\nname = k\n"
            "buffers = 0:sequential:x\n")),
        "read and/or write");
}

// --- Fault-injection plan loader -------------------------------------------

TEST(InjectPlanLoader, WellFormedPlanLoads)
{
    InjectPlan plan = InjectPlan::fromKv(KvConfig::fromString(
        "[inject.pcie]\n"
        "degrade_factor = 4\n"
        "window_start_us = 10\n"
        "window_end_us = 50\n"));
    EXPECT_TRUE(plan.enabled());
    EXPECT_DOUBLE_EQ(plan.pcie.degradeFactor, 4.0);
}

TEST(InjectPlanLoaderDeathTest, MalformedPlansFatalWithKeyAndLine)
{
    // Every malformed parameter is an actionable fatal naming the
    // offending key — never a silent clamp. A window that ends
    // before it starts:
    EXPECT_DEATH(
        InjectPlan::fromKv(
            KvConfig::fromString("inject.pcie.window_start_us = 20\n"
                                 "inject.pcie.window_end_us = 10\n")),
        "injection plan key 'inject.pcie.window_end_us'.*not after "
        "its start");
    // A negative rate and a probability above 1:
    EXPECT_DEATH(
        InjectPlan::fromKv(KvConfig::fromString(
            "inject.host.slow_rate = -0.5\n")),
        "injection plan key 'inject.host.slow_rate'.*outside \\[0, "
        "1\\]");
    EXPECT_DEATH(
        InjectPlan::fromKv(KvConfig::fromString(
            "inject.pcie.fail_rate = 1.5\n")),
        "injection plan key 'inject.pcie.fail_rate'.*outside \\[0, "
        "1\\]");
    // A degradation factor that would speed the link up:
    EXPECT_DEATH(
        InjectPlan::fromKv(KvConfig::fromString(
            "inject.pcie.degrade_factor = 0.25\n")),
        "injection plan key 'inject.pcie.degrade_factor'.*must be "
        ">= 1");
    // Negative durations and counts:
    EXPECT_DEATH(
        InjectPlan::fromKv(KvConfig::fromString(
            "inject.kernel.jitter_us = -3\n")),
        "injection plan key 'inject.kernel.jitter_us'.*must be >= 0");
    EXPECT_DEATH(
        InjectPlan::fromKv(KvConfig::fromString(
            "inject.migrate.storm_chunks = -1\n")),
        "injection plan key 'inject.migrate.storm_chunks'.*must be "
        ">= 0");
    // Typo'd keys fatal with a did-you-mean instead of silently
    // leaving the seam inert:
    EXPECT_DEATH(
        InjectPlan::fromKv(KvConfig::fromString(
            "inject.pcie.degrade_facter = 4\n")),
        "injection plan key 'inject.pcie.degrade_facter'.*did you "
        "mean 'inject.pcie.degrade_factor'");
}

// --- Pinned host option ----------------------------------------------------

TEST(PinnedHost, FasterExplicitTransfers)
{
    registerAllWorkloads();
    Job job = WorkloadRegistry::instance()
                  .get("saxpy")
                  .makeJob(SizeClass::Medium);
    Device device(SystemConfig::a100Epyc());
    RunOptions opts;
    double pageable =
        device.run(job, TransferMode::Standard, opts)
            .breakdown.transferPs;
    opts.pinnedHost = true;
    double pinned = device.run(job, TransferMode::Standard, opts)
                        .breakdown.transferPs;
    EXPECT_LT(pinned, pageable * 0.7);
}

TEST(PinnedHost, DoesNotAffectUvmModes)
{
    registerAllWorkloads();
    Job job = WorkloadRegistry::instance()
                  .get("saxpy")
                  .makeJob(SizeClass::Small);
    Device device(SystemConfig::a100Epyc());
    RunOptions opts;
    double plain = device.run(job, TransferMode::UvmPrefetch, opts)
                       .breakdown.transferPs;
    opts.pinnedHost = true;
    double pinned = device.run(job, TransferMode::UvmPrefetch, opts)
                        .breakdown.transferPs;
    EXPECT_DOUBLE_EQ(plain, pinned);
}

} // namespace
} // namespace uvmasync
