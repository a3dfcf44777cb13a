/**
 * @file
 * Tests for the deterministic fault-injection layer: plan parsing
 * and validation, per-seam triggering with a clean fixture each, the
 * provable-inertness guarantee (no plan / zero-rate plan leaves runs
 * byte-identical), RNG-stream independence between seams, and the
 * registry-wide monotonicity property — an injected run is never
 * faster than its uninjected twin on the same seed.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "inject/inject_plan.hh"
#include "inject/injector.hh"
#include "trace/chrome_export.hh"
#include "trace/metrics.hh"
#include "workloads/registry.hh"

namespace uvmasync
{
namespace
{

InjectPlan
planFrom(const std::string &text)
{
    std::vector<InjectIssue> issues;
    InjectPlan plan = InjectPlan::parse(
        KvConfig::fromString(text, "test-plan"), issues);
    EXPECT_TRUE(issues.empty())
        << "unexpected issue: " << issues[0].key << ": "
        << issues[0].message;
    return plan;
}

std::vector<InjectIssue>
issuesOf(const std::string &text)
{
    std::vector<InjectIssue> issues;
    InjectPlan::parse(KvConfig::fromString(text, "test-plan"),
                      issues);
    return issues;
}

bool
hasIssueForKey(const std::vector<InjectIssue> &issues,
               const std::string &key)
{
    for (const InjectIssue &issue : issues) {
        if (issue.key == key)
            return true;
    }
    return false;
}

std::string
chromeExport(const ExperimentResult &res)
{
    std::vector<ChromeTraceJob> jobs = {
        {res.workload + "/" + transferModeName(res.mode),
         &res.trace}};
    std::ostringstream out;
    writeChromeTrace(out, jobs);
    return out.str();
}

std::string
metricsCsv(const ExperimentResult &res)
{
    std::ostringstream out;
    writeTraceMetricsCsv(out, computeTraceMetrics(res.trace));
    return out.str();
}

ExperimentResult
runInjected(const std::string &workload, TransferMode mode,
            const InjectPlan &plan, bool trace = false,
            SizeClass size = SizeClass::Small)
{
    Experiment experiment;
    ExperimentOptions opts;
    opts.size = size;
    opts.runs = 1;
    opts.baseSeed = 42;
    opts.trace = trace;
    opts.inject = plan;
    return experiment.run(workload, mode, opts);
}

// --- plan parsing and validation ----------------------------------

TEST(InjectPlan, DefaultPlanIsInert)
{
    InjectPlan plan;
    EXPECT_FALSE(plan.enabled());
    EXPECT_FALSE(planFrom("").enabled());
}

TEST(InjectPlan, ParsesEverySection)
{
    InjectPlan plan = planFrom("[inject]\n"
                               "seed = 9\n"
                               "[inject.pcie]\n"
                               "degrade_factor = 4\n"
                               "window_start_us = 10\n"
                               "window_end_us = 20\n"
                               "stutter_period_us = 2\n"
                               "stutter_duty = 0.25\n"
                               "fail_rate = 0.5\n"
                               "max_retries = 7\n"
                               "backoff_base_us = 3\n"
                               "[inject.fault]\n"
                               "batch_overflow = 4\n"
                               "overflow_penalty_us = 1\n"
                               "delay_rate = 0.5\n"
                               "delay_us = 2\n"
                               "[inject.migrate]\n"
                               "backpressure_rate = 0.5\n"
                               "backpressure_us = 1\n"
                               "storm_rate = 0.25\n"
                               "storm_chunks = 3\n"
                               "[inject.host]\n"
                               "slow_rate = 0.5\n"
                               "slow_factor = 2.5\n"
                               "[inject.kernel]\n"
                               "jitter_rate = 0.5\n"
                               "jitter_us = 4\n");
    EXPECT_TRUE(plan.enabled());
    EXPECT_EQ(plan.seed, 9u);
    EXPECT_DOUBLE_EQ(plan.pcie.degradeFactor, 4.0);
    EXPECT_EQ(plan.pcie.window.startPs, microseconds(10));
    EXPECT_EQ(plan.pcie.window.endPs, microseconds(20));
    EXPECT_EQ(plan.pcie.stutterPeriodPs, microseconds(2));
    EXPECT_DOUBLE_EQ(plan.pcie.stutterDuty, 0.25);
    EXPECT_DOUBLE_EQ(plan.pcie.failRate, 0.5);
    EXPECT_EQ(plan.pcie.maxRetries, 7u);
    EXPECT_EQ(plan.pcie.backoffBasePs, microseconds(3));
    EXPECT_EQ(plan.fault.batchOverflow, 4u);
    EXPECT_EQ(plan.fault.overflowPenaltyPs, microseconds(1));
    EXPECT_DOUBLE_EQ(plan.fault.delayRate, 0.5);
    EXPECT_EQ(plan.fault.delayPs, microseconds(2));
    EXPECT_DOUBLE_EQ(plan.migrate.backpressureRate, 0.5);
    EXPECT_EQ(plan.migrate.backpressurePs, microseconds(1));
    EXPECT_DOUBLE_EQ(plan.migrate.stormRate, 0.25);
    EXPECT_EQ(plan.migrate.stormChunks, 3u);
    EXPECT_DOUBLE_EQ(plan.host.slowRate, 0.5);
    EXPECT_DOUBLE_EQ(plan.host.slowFactor, 2.5);
    EXPECT_DOUBLE_EQ(plan.kernel.jitterRate, 0.5);
    EXPECT_EQ(plan.kernel.jitterPs, microseconds(4));
}

TEST(InjectPlan, ParseCollectsEverySemanticIssue)
{
    // One malformed value per category, all reported in one pass —
    // never silently clamped.
    std::vector<InjectIssue> issues =
        issuesOf("inject.pcie.fail_rate = 1.5\n"
                 "inject.pcie.degrade_factor = 0.5\n"
                 "inject.pcie.backoff_base_us = -1\n"
                 "inject.fault.batch_overflow = -2\n"
                 "inject.pcie.window_start_us = 20\n"
                 "inject.pcie.window_end_us = 10\n");
    EXPECT_TRUE(hasIssueForKey(issues, "inject.pcie.fail_rate"));
    EXPECT_TRUE(hasIssueForKey(issues, "inject.pcie.degrade_factor"));
    EXPECT_TRUE(hasIssueForKey(issues, "inject.pcie.backoff_base_us"));
    EXPECT_TRUE(hasIssueForKey(issues, "inject.fault.batch_overflow"));
    EXPECT_TRUE(hasIssueForKey(issues, "inject.pcie.window_end_us"));
    EXPECT_EQ(issues.size(), 5u);
}

TEST(InjectPlan, ParseFlagsUnknownKeys)
{
    std::vector<InjectIssue> issues =
        issuesOf("inject.pcie.degrade_facter = 4\n");
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].key, "inject.pcie.degrade_facter");
}

TEST(InjectPlan, KnownKeysAreSorted)
{
    const std::vector<std::string> &keys = knownInjectKeys();
    ASSERT_FALSE(keys.empty());
    for (std::size_t i = 1; i < keys.size(); ++i)
        EXPECT_LT(keys[i - 1], keys[i]);
}

TEST(InjectWindowTest, OpenAndClosedWindows)
{
    InjectWindow open{microseconds(5), 0};
    EXPECT_FALSE(open.covers(microseconds(4)));
    EXPECT_TRUE(open.covers(microseconds(5)));
    EXPECT_TRUE(open.covers(maxTick - 1));

    InjectWindow closed{microseconds(5), microseconds(10)};
    EXPECT_TRUE(closed.covers(microseconds(5)));
    EXPECT_FALSE(closed.covers(microseconds(10)));
}

// --- injector unit behaviour, one seam per fixture ----------------

TEST(Injector, DegradeFactorHonoursWindowAndStutter)
{
    InjectPlan plan;
    plan.pcie.degradeFactor = 4.0;
    plan.pcie.window = {microseconds(1), microseconds(2)};
    Injector inj(plan, 1);
    ASSERT_TRUE(inj.enabled());
    EXPECT_DOUBLE_EQ(inj.degradeFactor(0), 1.0);
    EXPECT_DOUBLE_EQ(inj.degradeFactor(microseconds(1)), 4.0);
    EXPECT_DOUBLE_EQ(inj.degradeFactor(microseconds(2)), 1.0);

    // Stutter: degraded for the duty share of each period.
    plan.pcie.stutterPeriodPs = microseconds(1);
    plan.pcie.stutterDuty = 0.5;
    plan.pcie.window = {0, 0};
    Injector stutter(plan, 1);
    EXPECT_DOUBLE_EQ(stutter.degradeFactor(0), 4.0);
    EXPECT_DOUBLE_EQ(
        stutter.degradeFactor(microseconds(1) / 2 + 1), 1.0);
    EXPECT_DOUBLE_EQ(stutter.degradeFactor(microseconds(1)), 4.0);
}

TEST(Injector, TransientFailuresRetryWithExponentialBackoff)
{
    InjectPlan plan;
    plan.pcie.failRate = 1.0; // every roll fails
    plan.pcie.maxRetries = 3;
    plan.pcie.backoffBasePs = 1000;
    Injector inj(plan, 1);
    try {
        inj.applyTransferFaults(0, kib(4), "h2d");
        FAIL() << "expected TransferAborted";
    } catch (const TransferAborted &e) {
        EXPECT_EQ(e.attempts(), 3u);
        // Retries 0..2 waited base << attempt before the abort.
        EXPECT_EQ(e.when(), Tick(1000 + 2000 + 4000));
        EXPECT_NE(std::string(e.what()).find("after 3 retries"),
                  std::string::npos);
    }
    EXPECT_EQ(inj.counters().retries, 3u);
    EXPECT_EQ(inj.counters().aborts, 1u);
    EXPECT_EQ(inj.counters().backoffPs, Tick(7000));
}

TEST(Injector, ZeroFailRateNeverPerturbsIssueTime)
{
    InjectPlan plan;
    plan.pcie.degradeFactor = 2.0; // enables the injector
    Injector inj(plan, 1);
    EXPECT_EQ(inj.applyTransferFaults(1234, kib(4), "h2d"),
              Tick(1234));
    EXPECT_EQ(inj.counters().transientFailures, 0u);
}

TEST(Injector, BatchOverflowClampsOnlyBelowConfigured)
{
    InjectPlan plan;
    plan.fault.batchOverflow = 4;
    plan.fault.overflowPenaltyPs = 500;
    Injector inj(plan, 1);
    EXPECT_EQ(inj.clampBatchSize(256), 4u);
    EXPECT_EQ(inj.clampBatchSize(2), 2u);
    EXPECT_EQ(inj.overflowPenalty(0), Tick(500));
    EXPECT_EQ(inj.counters().overflowBatches, 1u);

    InjectPlan off;
    off.kernel.jitterRate = 1.0;
    off.kernel.jitterPs = 1;
    Injector noClamp(off, 1);
    EXPECT_EQ(noClamp.clampBatchSize(256), 256u);
}

TEST(Injector, CertainBatchDelayAlwaysFires)
{
    InjectPlan plan;
    plan.fault.delayRate = 1.0;
    plan.fault.delayPs = 700;
    Injector inj(plan, 1);
    EXPECT_EQ(inj.batchOpenDelay(0), Tick(700));
    EXPECT_EQ(inj.batchOpenDelay(10), Tick(700));
    EXPECT_EQ(inj.counters().delayedBatches, 2u);
    EXPECT_EQ(inj.counters().faultDelayPs, Tick(1400));
}

TEST(Injector, CertainBackpressureAlwaysFires)
{
    InjectPlan plan;
    plan.migrate.backpressureRate = 1.0;
    plan.migrate.backpressurePs = 900;
    Injector inj(plan, 1);
    EXPECT_EQ(inj.migrationBackpressure(0), Tick(900));
    EXPECT_EQ(inj.counters().backpressureEvents, 1u);
    EXPECT_EQ(inj.counters().backpressurePs, Tick(900));
}

TEST(Injector, StormDrawRespectsRateAndChunks)
{
    InjectPlan plan;
    plan.migrate.stormRate = 1.0;
    plan.migrate.stormChunks = 5;
    Injector inj(plan, 1);
    EXPECT_TRUE(inj.stormsEnabled());
    EXPECT_EQ(inj.drawEvictionStorm(), 5u);

    InjectPlan off;
    off.kernel.jitterRate = 1.0;
    off.kernel.jitterPs = 1;
    Injector noStorm(off, 1);
    EXPECT_FALSE(noStorm.stormsEnabled());
    EXPECT_EQ(noStorm.drawEvictionStorm(), 0u);
}

TEST(Injector, HostSlowFactorIsReciprocalInsideWindow)
{
    InjectPlan plan;
    plan.host.slowRate = 1.0;
    plan.host.slowFactor = 4.0;
    plan.host.window = {0, microseconds(1)};
    Injector inj(plan, 1);
    EXPECT_DOUBLE_EQ(inj.hostSlowFactor(0), 0.25);
    EXPECT_DOUBLE_EQ(inj.hostSlowFactor(microseconds(2)), 1.0);
    EXPECT_EQ(inj.counters().slowPageTransfers, 1u);
}

TEST(Injector, LaunchJitterBoundedByPlan)
{
    InjectPlan plan;
    plan.kernel.jitterRate = 1.0;
    plan.kernel.jitterPs = 5000;
    Injector inj(plan, 1);
    for (int i = 0; i < 32; ++i) {
        Tick jitter = inj.launchJitter(0);
        EXPECT_GE(jitter, Tick(1));
        EXPECT_LE(jitter, Tick(5000));
    }
    EXPECT_EQ(inj.counters().jitteredLaunches, 32u);
}

TEST(Injector, SeamStreamsAreIndependent)
{
    // Consuming draws on the PCIe stream must not shift the kernel
    // stream: same salt, different draw interleavings, identical
    // jitter sequences.
    InjectPlan plan;
    plan.pcie.failRate = 0.25;
    plan.pcie.maxRetries = 1000;
    plan.kernel.jitterRate = 1.0;
    plan.kernel.jitterPs = 1000000;

    Injector a(plan, 77);
    Injector b(plan, 77);
    for (int i = 0; i < 64; ++i)
        a.applyTransferFaults(0, kib(4), "h2d"); // burn pcie draws
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.launchJitter(0), b.launchJitter(0)) << i;
}

TEST(Injector, SaltIsAPureFunctionOfBothSeeds)
{
    EXPECT_EQ(injectSalt(1, 2), injectSalt(1, 2));
    EXPECT_NE(injectSalt(1, 2), injectSalt(2, 1));
    EXPECT_NE(injectSalt(1, 2), injectSalt(1, 3));
}

// --- end-to-end seam triggering through Experiment ----------------

TEST(InjectEndToEnd, PcieDegradeSlowsUvmAndShowsInTrace)
{
    InjectPlan plan = planFrom("inject.pcie.degrade_factor = 4\n");
    ExperimentResult base = runInjected(
        "vector_seq", TransferMode::Uvm, InjectPlan{}, true);
    ExperimentResult hurt =
        runInjected("vector_seq", TransferMode::Uvm, plan, true);

    EXPECT_GT(hurt.clean.overallPs(), base.clean.overallPs());
    EXPECT_GT(hurt.injectCounters.degradedTransfers, 0u);
    EXPECT_GT(hurt.injectCounters.degradedBusyPs, 0u);

    // The perturbation is visible in the Chrome export...
    std::string json = chromeExport(hurt);
    EXPECT_NE(json.find("\"cat\": \"inject\""), std::string::npos);
    EXPECT_NE(json.find("inject_degraded"), std::string::npos);

    // ...and shifts the transfer-stall picture in the metrics.
    TraceMetrics baseM = computeTraceMetrics(base.trace);
    TraceMetrics hurtM = computeTraceMetrics(hurt.trace);
    EXPECT_GT(hurtM.injectEvents, 0u);
    EXPECT_GT(hurtM.injectDegradedShare, 0.0);
    EXPECT_GT(hurtM.pcieBusyPs, baseM.pcieBusyPs);
    EXPECT_NE(metricsCsv(hurt).find("inject_degraded_share"),
              std::string::npos);
}

TEST(InjectEndToEnd, TransientFailuresRetryAndSlowTheRun)
{
    // UVM mode so the link sees one transfer per migrated chunk —
    // enough rolls that a 50% transient rate is certain to fire.
    InjectPlan plan = planFrom("inject.pcie.fail_rate = 0.5\n"
                               "inject.pcie.max_retries = 1000000\n"
                               "inject.pcie.backoff_base_us = 5\n");
    ExperimentResult base = runInjected(
        "vector_seq", TransferMode::Uvm, InjectPlan{});
    ExperimentResult hurt =
        runInjected("vector_seq", TransferMode::Uvm, plan);
    EXPECT_GT(hurt.injectCounters.transientFailures, 0u);
    EXPECT_EQ(hurt.injectCounters.retries,
              hurt.injectCounters.transientFailures);
    EXPECT_GT(hurt.injectCounters.backoffPs, 0u);
    EXPECT_EQ(hurt.injectCounters.aborts, 0u);
    EXPECT_GT(hurt.clean.overallPs(), base.clean.overallPs());
}

TEST(InjectEndToEnd, ExhaustedRetriesAbortTheJobAsAnException)
{
    InjectPlan plan = planFrom("inject.pcie.fail_rate = 1\n"
                               "inject.pcie.max_retries = 2\n"
                               "inject.pcie.backoff_base_us = 1\n");
    Experiment experiment;
    ExperimentOptions opts;
    opts.size = SizeClass::Small;
    opts.runs = 1;
    opts.inject = plan;
    EXPECT_THROW(
        experiment.run("vector_seq", TransferMode::Standard, opts),
        TransferAborted);
}

TEST(InjectEndToEnd, FaultBatchOverflowFragmentsUvmBatches)
{
    // saxpy touches two managed buffers per wave, so its faults
    // naturally batch 2-3 deep; a capacity of 1 must overflow.
    InjectPlan plan = planFrom("inject.fault.batch_overflow = 1\n"
                               "inject.fault.overflow_penalty_us = "
                               "2\n");
    ExperimentResult base =
        runInjected("saxpy", TransferMode::Uvm, InjectPlan{});
    ExperimentResult hurt =
        runInjected("saxpy", TransferMode::Uvm, plan);
    EXPECT_GT(hurt.injectCounters.overflowBatches, 0u);
    EXPECT_GT(hurt.clean.overallPs(), base.clean.overallPs());
}

TEST(InjectEndToEnd, DelayedBatchServicing)
{
    InjectPlan plan = planFrom("inject.fault.delay_rate = 1\n"
                               "inject.fault.delay_us = 3\n");
    ExperimentResult hurt =
        runInjected("vector_seq", TransferMode::Uvm, plan);
    EXPECT_GT(hurt.injectCounters.delayedBatches, 0u);
    EXPECT_GT(hurt.injectCounters.faultDelayPs, 0u);
}

TEST(InjectEndToEnd, MigrationBackpressureStallsUvm)
{
    InjectPlan plan =
        planFrom("inject.migrate.backpressure_rate = 1\n"
                 "inject.migrate.backpressure_us = 2\n");
    ExperimentResult base =
        runInjected("vector_seq", TransferMode::Uvm, InjectPlan{});
    ExperimentResult hurt =
        runInjected("vector_seq", TransferMode::Uvm, plan);
    EXPECT_GT(hurt.injectCounters.backpressureEvents, 0u);
    EXPECT_GT(hurt.clean.overallPs(), base.clean.overallPs());
}

TEST(InjectEndToEnd, EvictionStormsThrashResidentChunks)
{
    InjectPlan plan = planFrom("inject.migrate.storm_rate = 1\n"
                               "inject.migrate.storm_chunks = 2\n");
    ExperimentResult hurt =
        runInjected("vector_seq", TransferMode::Uvm, plan);
    EXPECT_GT(hurt.injectCounters.stormEvictions, 0u);
}

TEST(InjectEndToEnd, HostSlowPagesStretchExplicitCopies)
{
    InjectPlan plan = planFrom("inject.host.slow_rate = 1\n"
                               "inject.host.slow_factor = 4\n");
    ExperimentResult base = runInjected(
        "vector_seq", TransferMode::Standard, InjectPlan{});
    ExperimentResult hurt =
        runInjected("vector_seq", TransferMode::Standard, plan);
    EXPECT_GT(hurt.injectCounters.slowPageTransfers, 0u);
    EXPECT_GT(hurt.clean.overallPs(), base.clean.overallPs());
}

TEST(InjectEndToEnd, KernelLaunchJitterDelaysEveryLaunch)
{
    InjectPlan plan = planFrom("inject.kernel.jitter_rate = 1\n"
                               "inject.kernel.jitter_us = 10\n");
    ExperimentResult base = runInjected(
        "vector_seq", TransferMode::Standard, InjectPlan{});
    ExperimentResult hurt =
        runInjected("vector_seq", TransferMode::Standard, plan);
    EXPECT_GT(hurt.injectCounters.jitteredLaunches, 0u);
    EXPECT_GT(hurt.injectCounters.jitterPs, 0u);
    EXPECT_GT(hurt.clean.overallPs(), base.clean.overallPs());
}

// --- provable inertness -------------------------------------------

TEST(InjectInertness, InertPlanIsByteIdenticalToNoInjection)
{
    // A plan whose every rate is zero must leave the traced run —
    // breakdown, Chrome export and metrics CSV — byte-identical to a
    // run with no injection support engaged at all.
    InjectPlan inert = planFrom("inject.pcie.degrade_factor = 1\n"
                                "inject.pcie.fail_rate = 0\n"
                                "inject.kernel.jitter_rate = 0\n");
    ASSERT_FALSE(inert.enabled());

    for (TransferMode mode : allTransferModes) {
        ExperimentResult base = runInjected("saxpy", mode,
                                            InjectPlan{}, true,
                                            SizeClass::Tiny);
        ExperimentResult twin = runInjected("saxpy", mode, inert,
                                            true, SizeClass::Tiny);
        EXPECT_EQ(twin.clean.overallPs(), base.clean.overallPs())
            << transferModeName(mode);
        EXPECT_EQ(chromeExport(twin), chromeExport(base))
            << transferModeName(mode);
        EXPECT_EQ(metricsCsv(twin), metricsCsv(base))
            << transferModeName(mode);
        EXPECT_EQ(computeTraceMetrics(twin.trace).injectEvents, 0u);
    }
}

TEST(InjectInertness, InjectLanesOnlyExistWhenInjecting)
{
    ExperimentResult base = runInjected(
        "saxpy", TransferMode::Uvm, InjectPlan{}, true);
    EXPECT_EQ(chromeExport(base).find("inject"), std::string::npos);

    InjectPlan plan = planFrom("inject.pcie.degrade_factor = 4\n");
    ExperimentResult hurt =
        runInjected("saxpy", TransferMode::Uvm, plan, true);
    EXPECT_NE(chromeExport(hurt).find("\"inject\""),
              std::string::npos);
}

TEST(InjectInertness, UninjectedMetricsCsvHasNoInjectRows)
{
    ExperimentResult base = runInjected(
        "saxpy", TransferMode::Uvm, InjectPlan{}, true);
    EXPECT_EQ(metricsCsv(base).find("inject_"), std::string::npos);
}

// --- monotonicity property ----------------------------------------

TEST(InjectMonotonicity, InjectedRunsNeverBeatTheirUninjectedTwin)
{
    // Registry-wide property over every workload and every transfer
    // mode: a purely-additive adversity plan (degraded link, slow
    // host pages, backpressure, launch jitter) can only ever push the
    // deterministic completion time out, never pull it in.
    InjectPlan plan =
        planFrom("inject.pcie.degrade_factor = 2\n"
                 "inject.host.slow_rate = 0.5\n"
                 "inject.host.slow_factor = 2\n"
                 "inject.migrate.backpressure_rate = 0.5\n"
                 "inject.migrate.backpressure_us = 1\n"
                 "inject.kernel.jitter_rate = 0.5\n"
                 "inject.kernel.jitter_us = 2\n");
    // Each (workload, mode) runs plain, then injected, at Tiny: one
    // engine batch with lint off, since the gate cannot change a
    // clean time.
    registerAllWorkloads();
    std::vector<ExperimentPoint> points;
    for (const std::string &name :
         WorkloadRegistry::instance().names()) {
        for (TransferMode mode : allTransferModes) {
            ExperimentOptions opts;
            opts.size = SizeClass::Tiny;
            opts.runs = 1;
            opts.baseSeed = 42;
            opts.lint = LintMode::Off;
            points.push_back({name, mode, opts});
            opts.inject = plan;
            points.push_back({name, mode, opts});
        }
    }
    std::vector<ExperimentResult> results =
        ParallelRunner().runPoints(points).results();
    for (std::size_t i = 0; i < results.size(); i += 2) {
        const ExperimentResult &base = results[i];
        const ExperimentResult &hurt = results[i + 1];
        EXPECT_GE(hurt.clean.overallPs(), base.clean.overallPs())
            << base.workload << "/" << transferModeName(base.mode);
    }
}

} // namespace
} // namespace uvmasync
