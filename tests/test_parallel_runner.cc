/**
 * @file
 * Tests for the parallel experiment engine: serial-vs-parallel
 * bit-identical results over a full mode x workload x trial grid,
 * error isolation (one failing point does not poison the batch),
 * the empty-batch / jobs-greater-than-points edge cases, and the
 * differential-determinism and failure-isolation guarantees of the
 * fault-injection layer, and the batch's lint pricing plan (each job
 * priced once, the same findings printed as per-mode gates).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.hh"
#include "common/logging.hh"
#include "core/parallel_runner.hh"
#include "inject/inject_plan.hh"
#include "journal/journal.hh"
#include "journal/json.hh"
#include "trace/chrome_export.hh"
#include "trace/metrics.hh"
#include "workloads/job_loader.hh"
#include "workloads/lambda_workload.hh"
#include "workloads/registry.hh"
#include "grid.hh"

namespace uvmasync
{
namespace
{

/**
 * Exact textual fingerprint of a result: every double printed with
 * %.17g round-trips the full bit pattern, so two equal fingerprints
 * mean bit-identical results.
 */
std::string
fingerprint(const ExperimentResult &res)
{
    char buf[256];
    std::string out = res.workload;
    out += '/';
    out += transferModeName(res.mode);
    auto add = [&](const TimeBreakdown &b) {
        std::snprintf(buf, sizeof(buf), "|%.17g,%.17g,%.17g",
                      b.allocPs, b.transferPs, b.kernelPs);
        out += buf;
    };
    add(res.clean);
    for (const TimeBreakdown &run : res.runs)
        add(run);
    std::snprintf(buf, sizeof(buf),
                  "|f%llu|h%llu|d%llu|l%llu|%.17g|%.17g|%.17g",
                  static_cast<unsigned long long>(res.counters.faults),
                  static_cast<unsigned long long>(
                      res.counters.bytesH2d),
                  static_cast<unsigned long long>(
                      res.counters.bytesD2h),
                  static_cast<unsigned long long>(
                      res.counters.launches),
                  res.counters.l1LoadMissRate,
                  res.counters.l1StoreMissRate,
                  res.counters.occupancy);
    out += buf;
    return out;
}

std::vector<std::string>
fingerprintAll(const std::vector<ExperimentResult> &results)
{
    std::vector<std::string> out;
    out.reserve(results.size());
    for (const ExperimentResult &res : results)
        out.push_back(fingerprint(res));
    return out;
}

/** The issue's grid: 5 modes x 4 workloads x 8 trials = 160 points. */
std::vector<ExperimentPoint>
referenceGrid()
{
    ExperimentOptions base;
    base.size = SizeClass::Small;
    base.runs = 3;
    base.baseSeed = 42;
    std::vector<TransferMode> modes(allTransferModes.begin(),
                                    allTransferModes.end());
    return expandGrid(
        {"vector_seq", "saxpy", "gemv", "2DCONV"}, modes, 8, base);
}

TEST(ParallelRunner, GridParallelBitIdenticalToSerial)
{
    std::vector<ExperimentPoint> grid = referenceGrid();
    ASSERT_EQ(grid.size(), 5u * 4u * 8u);

    ParallelRunner serial(SystemConfig::a100Epyc(), 1);
    std::vector<std::string> reference =
        fingerprintAll(serial.runPoints(grid).results());

    for (unsigned jobs : {2u, 8u}) {
        ParallelRunner parallel(SystemConfig::a100Epyc(), jobs);
        std::vector<std::string> got =
            fingerprintAll(parallel.runPoints(grid).results());
        ASSERT_EQ(got.size(), reference.size()) << "jobs=" << jobs;
        for (std::size_t i = 0; i < reference.size(); ++i)
            EXPECT_EQ(got[i], reference[i])
                << "jobs=" << jobs << " point " << i;
    }
}

TEST(ParallelRunner, RepeatedParallelRunsAreStable)
{
    // Thread scheduling must never leak into results: two parallel
    // runs of the same batch are bit-identical to each other.
    std::vector<ExperimentPoint> grid = referenceGrid();
    ParallelRunner runner(SystemConfig::a100Epyc(), 8);
    EXPECT_EQ(fingerprintAll(runner.runPoints(grid).results()),
              fingerprintAll(runner.runPoints(grid).results()));
}

TEST(ParallelRunner, ExceptionInOnePointDoesNotPoisonBatch)
{
    ExperimentOptions opts;
    opts.size = SizeClass::Small;
    opts.runs = 2;
    std::vector<ExperimentPoint> points = {
        {"vector_seq", TransferMode::Standard, opts},
        {"no_such_workload", TransferMode::Uvm, opts},
        {"saxpy", TransferMode::Async, opts},
    };
    ParallelRunner runner(SystemConfig::a100Epyc(), 2);
    BatchResult batch = runner.runPoints(points);

    ASSERT_EQ(batch.points.size(), 3u);
    EXPECT_TRUE(batch.points[0].ok);
    EXPECT_FALSE(batch.points[1].ok);
    EXPECT_NE(batch.points[1].error.find("no_such_workload"),
              std::string::npos);
    EXPECT_TRUE(batch.points[2].ok);
    EXPECT_FALSE(batch.allOk());

    // The healthy points carry real results.
    EXPECT_GT(batch.points[0].result.clean.overallPs(), 0.0);
    EXPECT_GT(batch.points[2].result.clean.overallPs(), 0.0);

    // The throwing accessor names the failed point.
    EXPECT_THROW(batch.results(), std::runtime_error);
}

TEST(ParallelRunner, EmptyBatch)
{
    ParallelRunner runner(SystemConfig::a100Epyc(), 4);
    BatchResult batch = runner.runPoints({});
    EXPECT_TRUE(batch.points.empty());
    EXPECT_TRUE(batch.allOk());
    EXPECT_TRUE(batch.results().empty());
    EXPECT_EQ(batch.metrics.points, 0u);
}

TEST(ParallelRunner, MoreJobsThanPoints)
{
    ExperimentOptions opts;
    opts.size = SizeClass::Small;
    opts.runs = 2;
    std::vector<ExperimentPoint> points = {
        {"vector_seq", TransferMode::Standard, opts},
        {"vector_seq", TransferMode::Uvm, opts},
    };

    ParallelRunner serial(SystemConfig::a100Epyc(), 1);
    ParallelRunner wide(SystemConfig::a100Epyc(), 16);
    BatchResult batch = wide.runPoints(points);

    // Workers are clamped to the point count.
    EXPECT_EQ(batch.metrics.jobs, 2u);
    EXPECT_EQ(fingerprintAll(batch.results()),
              fingerprintAll(serial.runPoints(points).results()));
}

TEST(ParallelRunner, MetricsObserveTheBatch)
{
    std::vector<ExperimentPoint> grid = referenceGrid();
    ParallelRunner runner(SystemConfig::a100Epyc(), 2);
    BatchResult batch = runner.runPoints(grid);
    EXPECT_EQ(batch.metrics.points, grid.size());
    EXPECT_EQ(batch.metrics.jobs, 2u);
    EXPECT_GT(batch.metrics.wallMs, 0.0);
    EXPECT_GE(batch.metrics.busyMs, 0.0);
    EXPECT_GT(batch.metrics.pointsPerSec, 0.0);
    for (const PointOutcome &point : batch.points) {
        EXPECT_LT(point.metrics.worker, 2u);
        EXPECT_GE(point.metrics.queueWaitMs, 0.0);
    }
}

TEST(ParallelRunner, ExpandGridSeedsAreCounterDerived)
{
    ExperimentOptions base;
    base.baseSeed = 7;
    std::vector<TransferMode> modes = {TransferMode::Standard,
                                       TransferMode::Uvm};
    std::vector<ExperimentPoint> grid =
        expandGrid({"saxpy"}, modes, 2, base);
    ASSERT_EQ(grid.size(), 4u);
    // Every (mode, trial) key gets its own stream...
    std::set<std::uint64_t> seeds;
    for (const ExperimentPoint &point : grid)
        seeds.insert(point.opts.baseSeed);
    EXPECT_EQ(seeds.size(), grid.size());
    // ...and the derivation matches the documented contract.
    EXPECT_EQ(grid[0].opts.baseSeed,
              pointSeed(7, "saxpy",
                                        TransferMode::Standard, 0));
    EXPECT_EQ(grid[3].opts.baseSeed,
              pointSeed(7, "saxpy", TransferMode::Uvm,
                                        1));
}

TEST(ParallelRunner, TracedBatchExportIsByteIdenticalToSerial)
{
    // Tracing must not perturb the engine's determinism: the merged
    // Chrome export of a traced grid is byte-identical between a
    // serial run and a 4-worker run (submission-order merge, one
    // Tracer per point).
    ExperimentOptions base;
    base.size = SizeClass::Tiny;
    base.runs = 1;
    base.baseSeed = 42;
    base.trace = true;
    std::vector<TransferMode> modes(allTransferModes.begin(),
                                    allTransferModes.end());
    std::vector<ExperimentPoint> points = expandGrid(
        {"saxpy", "vector_seq"}, modes, 1, base);

    auto exported = [](const std::vector<ExperimentResult> &results) {
        std::vector<ChromeTraceJob> jobs;
        jobs.reserve(results.size());
        for (const ExperimentResult &res : results) {
            jobs.push_back(ChromeTraceJob{
                res.workload + "/" + transferModeName(res.mode),
                &res.trace});
        }
        std::ostringstream out;
        writeChromeTrace(out, jobs);
        return out.str();
    };

    ParallelRunner serial(SystemConfig::a100Epyc(), 1);
    std::string reference = exported(serial.runPoints(points).results());
    ASSERT_NE(reference.find("\"traceEvents\""), std::string::npos);

    ParallelRunner parallel(SystemConfig::a100Epyc(), 4);
    EXPECT_EQ(exported(parallel.runPoints(points).results()), reference);
}

TEST(ParallelRunner, InjectedBatchIsByteIdenticalAcrossJobCounts)
{
    // Differential determinism of the fault-injection layer: with a
    // plan firing on four different seams, a 4-worker batch must
    // replay byte-identically to a serial one — fingerprints, merged
    // Chrome export and per-point metrics CSVs all included. The
    // injector's RNG streams derive from (injectSeed, point seed)
    // only, never from scheduling.
    ExperimentOptions base;
    base.size = SizeClass::Tiny;
    base.runs = 1;
    base.baseSeed = 42;
    base.trace = true;
    base.injectSeed = 7;
    base.inject = InjectPlan::fromKv(KvConfig::fromString(
        "inject.pcie.degrade_factor = 3\n"
        "inject.pcie.fail_rate = 0.1\n"
        "inject.pcie.max_retries = 1000000\n"
        "inject.pcie.backoff_base_us = 1\n"
        "inject.host.slow_rate = 0.5\n"
        "inject.host.slow_factor = 2\n"
        "inject.kernel.jitter_rate = 0.5\n"
        "inject.kernel.jitter_us = 2\n"));
    std::vector<TransferMode> modes(allTransferModes.begin(),
                                    allTransferModes.end());
    std::vector<ExperimentPoint> points = expandGrid(
        {"saxpy", "vector_seq"}, modes, 1, base);

    auto artifacts = [](const std::vector<ExperimentResult> &results) {
        std::ostringstream out;
        std::vector<ChromeTraceJob> jobs;
        jobs.reserve(results.size());
        for (const ExperimentResult &res : results) {
            jobs.push_back(ChromeTraceJob{
                res.workload + "/" + transferModeName(res.mode),
                &res.trace});
        }
        writeChromeTrace(out, jobs);
        for (const ExperimentResult &res : results) {
            writeTraceMetricsCsv(out, computeTraceMetrics(res.trace));
            out << fingerprint(res) << "\n";
        }
        return out.str();
    };

    ParallelRunner serial(SystemConfig::a100Epyc(), 1);
    std::vector<ExperimentResult> reference =
        serial.runPoints(points).results();

    // The plan must actually have perturbed something, or this test
    // proves nothing.
    std::uint64_t fired = 0;
    for (const ExperimentResult &res : reference)
        fired += computeTraceMetrics(res.trace).injectEvents;
    ASSERT_GT(fired, 0u);

    ParallelRunner parallel(SystemConfig::a100Epyc(), 4);
    EXPECT_EQ(artifacts(parallel.runPoints(points).results()),
              artifacts(reference));
}

TEST(ParallelRunner, PoisonedConfigurationFailsOnlyItsPoint)
{
    // A configuration the linter rejects (a block bigger than the SM
    // thread capacity) fatals inside the worker; the engine converts
    // it to a structured per-point error and the sibling points come
    // out bit-identical to a batch that never contained the poison.
    ExperimentOptions good;
    good.size = SizeClass::Small;
    good.runs = 2;
    ExperimentOptions poisoned = good;
    poisoned.geometry.threadsPerBlock = 4096;

    std::vector<ExperimentPoint> withPoison = {
        {"vector_seq", TransferMode::Standard, good},
        {"saxpy", TransferMode::Uvm, poisoned},
        {"saxpy", TransferMode::Async, good},
    };
    std::vector<ExperimentPoint> clean = {
        {"vector_seq", TransferMode::Standard, good},
        {"saxpy", TransferMode::Async, good},
    };

    ParallelRunner runner(SystemConfig::a100Epyc(), 2);
    BatchResult batch = runner.runPoints(withPoison);
    ASSERT_EQ(batch.points.size(), 3u);
    EXPECT_TRUE(batch.points[0].ok);
    ASSERT_FALSE(batch.points[1].ok);
    EXPECT_NE(batch.points[1].error.find("lint"), std::string::npos)
        << batch.points[1].error;
    EXPECT_TRUE(batch.points[2].ok);

    std::vector<ExperimentResult> reference = runner.runPoints(clean).results();
    EXPECT_EQ(fingerprint(batch.points[0].result),
              fingerprint(reference[0]));
    EXPECT_EQ(fingerprint(batch.points[2].result),
              fingerprint(reference[1]));
}

TEST(ParallelRunner, InjectedAbortIsAStructuredPerPointError)
{
    // A transfer that exhausts its injected retry budget fails its
    // job with TransferAborted; the batch survives and reports the
    // abort verbatim.
    ExperimentOptions good;
    good.size = SizeClass::Small;
    good.runs = 1;
    ExperimentOptions doomed = good;
    doomed.inject = InjectPlan::fromKv(KvConfig::fromString(
        "inject.pcie.fail_rate = 1\n"
        "inject.pcie.max_retries = 2\n"
        "inject.pcie.backoff_base_us = 1\n"));

    std::vector<ExperimentPoint> points = {
        {"vector_seq", TransferMode::Standard, good},
        {"vector_seq", TransferMode::Standard, doomed},
        {"saxpy", TransferMode::Uvm, good},
    };
    ParallelRunner runner(SystemConfig::a100Epyc(), 2);
    BatchResult batch = runner.runPoints(points);
    ASSERT_EQ(batch.points.size(), 3u);
    EXPECT_TRUE(batch.points[0].ok);
    ASSERT_FALSE(batch.points[1].ok);
    EXPECT_NE(batch.points[1].error.find("after 2 retries"),
              std::string::npos)
        << batch.points[1].error;
    EXPECT_TRUE(batch.points[2].ok);
    EXPECT_FALSE(batch.allOk());
}

TEST(ParallelRunner, LivelockedPointIsQuarantinedSiblingsIntact)
{
    // An eviction-storm inject plan thrashes prefetched chunks out
    // at zero simulated cost: a long same-tick run of clean
    // evictions that no time-based bound can see, which the stall
    // detector flags as livelock. The doomed point is retried with
    // the same seed (fails identically), quarantined, and reported;
    // its siblings come out bit-identical to a batch that never
    // contained it.
    SystemConfig system = SystemConfig::a100Epyc();
    system.watchdog.maxStallEvents = 48;

    ExperimentOptions good;
    good.size = SizeClass::Medium;
    good.runs = 1;
    ExperimentOptions doomed = good;
    doomed.injectSeed = 7;
    doomed.inject = InjectPlan::fromKv(KvConfig::fromString(
        "inject.migrate.storm_rate = 0.01\n"
        "inject.migrate.storm_chunks = 100000\n"));

    std::vector<ExperimentPoint> withDoom = {
        {"vector_seq", TransferMode::Standard, good},
        {"saxpy", TransferMode::Uvm, doomed},
        {"saxpy", TransferMode::Uvm, good},
    };
    std::vector<ExperimentPoint> clean = {withDoom[0], withDoom[2]};

    ParallelRunner runner(system, 2);
    RunPolicy policy;
    policy.retries = 1;
    BatchResult batch = runner.runPoints(withDoom, policy);

    ASSERT_EQ(batch.points.size(), 3u);
    const PointOutcome &out = batch.points[1];
    ASSERT_FALSE(out.ok);
    EXPECT_EQ(out.status, PointStatus::Quarantined);
    EXPECT_EQ(out.attempts, 2u);
    EXPECT_NE(out.error.find("livelock"), std::string::npos)
        << out.error;
    ASSERT_EQ(out.attemptTrail.size(), 2u);
    EXPECT_EQ(out.attemptTrail[0].status, PointStatus::Timeout);
    // Retries reuse the point's seed, so a deterministic failure
    // fails identically on every attempt.
    EXPECT_EQ(out.attemptTrail[0].error, out.attemptTrail[1].error);

    EXPECT_TRUE(batch.points[0].ok);
    EXPECT_TRUE(batch.points[2].ok);
    EXPECT_EQ(batch.quarantined(), 1u);
    EXPECT_TRUE(batch.degraded());

    std::vector<ExperimentResult> reference = runner.runPoints(clean).results();
    EXPECT_EQ(fingerprint(batch.points[0].result),
              fingerprint(reference[0]));
    EXPECT_EQ(fingerprint(batch.points[2].result),
              fingerprint(reference[1]));
}

TEST(ParallelRunner, GlobalJobsOverrideAndRestore)
{
    setGlobalJobs(3);
    EXPECT_EQ(globalJobs(), 3u);
    ParallelRunner runner(SystemConfig::a100Epyc());
    EXPECT_EQ(runner.jobs(), 3u);
    setGlobalJobs(0); // restore auto
    EXPECT_GE(globalJobs(), 1u);
}

// --- lint pricing plan -----------------------------------------------

/** One point per transfer mode of @p workload, in canonical order. */
std::vector<ExperimentPoint>
allModes(const std::string &workload, const ExperimentOptions &opts)
{
    std::vector<ExperimentPoint> points;
    for (TransferMode mode : allTransferModes)
        points.push_back(ExperimentPoint{workload, mode, opts});
    return points;
}

std::vector<TransferMode>
modeRange(std::size_t first, std::size_t last)
{
    return std::vector<TransferMode>(allTransferModes.begin() + first,
                                     allTransferModes.begin() + last);
}

TEST(LintPricing, FiveModeGroupIsPricedByItsFirstPoint)
{
    std::vector<ExperimentPoint> points = allModes("saxpy", {});
    std::vector<std::vector<TransferMode>> plan =
        planLintPricing(points, std::vector<char>(points.size(), 1));
    ASSERT_EQ(plan.size(), points.size());
    EXPECT_EQ(plan[0], modeRange(0, 5));
    for (std::size_t i = 1; i < plan.size(); ++i)
        EXPECT_TRUE(plan[i].empty()) << "point " << i;
}

TEST(LintPricing, RestoredFirstPointHandsPricingToTheNextLivePoint)
{
    // A journal restore and a store hit both leave the point
    // non-live; the group's next live point prices every mode still
    // to run, and the skipped modes are not priced at all.
    std::vector<ExperimentPoint> points = allModes("saxpy", {});
    std::vector<std::vector<TransferMode>> plan =
        planLintPricing(points, {0, 0, 1, 1, 1});
    EXPECT_TRUE(plan[0].empty());
    EXPECT_TRUE(plan[1].empty());
    EXPECT_EQ(plan[2], modeRange(2, 5));
    EXPECT_TRUE(plan[3].empty());
    EXPECT_TRUE(plan[4].empty());

    plan = planLintPricing(points, {0, 0, 0, 0, 0});
    for (const std::vector<TransferMode> &modes : plan)
        EXPECT_TRUE(modes.empty());
}

TEST(LintPricing, LintOffPointsNeitherPriceNorArePriced)
{
    std::vector<ExperimentPoint> points = allModes("saxpy", {});
    points[0].opts.lint = LintMode::Off;
    points[3].opts.lint = LintMode::Off;
    points[4].opts.lint = LintMode::Warn; // Warn and Enforce group
    std::vector<std::vector<TransferMode>> plan =
        planLintPricing(points, std::vector<char>(points.size(), 1));
    EXPECT_TRUE(plan[0].empty());
    EXPECT_EQ(plan[1], (std::vector<TransferMode>{
                           allTransferModes[1], allTransferModes[2],
                           allTransferModes[4]}));
    EXPECT_TRUE(plan[2].empty());
    EXPECT_TRUE(plan[3].empty());
    EXPECT_TRUE(plan[4].empty());
}

TEST(LintPricing, JobIdentitySplitsGroups)
{
    // A geometry override, a size or a workload makes another job,
    // priced by its own first point; repeated modes (trials) are
    // priced once.
    ExperimentOptions wide;
    wide.geometry.gridBlocks = 1024;
    ExperimentOptions large;
    large.size = SizeClass::Large;
    std::vector<ExperimentPoint> points = {
        {"saxpy", TransferMode::Standard, {}},
        {"saxpy", TransferMode::Standard, wide},
        {"saxpy", TransferMode::Uvm, {}},
        {"saxpy", TransferMode::Uvm, wide},
        {"saxpy", TransferMode::Uvm, large},
        {"gemv", TransferMode::Uvm, {}},
        {"saxpy", TransferMode::Standard, {}},
    };
    std::vector<std::vector<TransferMode>> plan =
        planLintPricing(points, std::vector<char>(points.size(), 1));
    std::vector<TransferMode> both = {TransferMode::Standard,
                                      TransferMode::Uvm};
    EXPECT_EQ(plan[0], both);
    EXPECT_EQ(plan[1], both);
    EXPECT_TRUE(plan[2].empty());
    EXPECT_TRUE(plan[3].empty());
    EXPECT_EQ(plan[4], std::vector<TransferMode>{TransferMode::Uvm});
    EXPECT_EQ(plan[5], std::vector<TransferMode>{TransferMode::Uvm});
    EXPECT_TRUE(plan[6].empty());
}

TEST(LintPricing, OnePointBatchPricesItsOwnMode)
{
    std::vector<ExperimentPoint> points = {
        {"saxpy", TransferMode::UvmPrefetch, {}}};
    EXPECT_EQ(planLintPricing(points, {1}),
              std::vector<std::vector<TransferMode>>{
                  {TransferMode::UvmPrefetch}});
}

/**
 * A workload whose gate, on pricingSystem()'s 1 GiB device, prints
 * UAL019 (the 1.52 GiB touched set thrashes), UAL021 (`tmp` is
 * written but never observed) and UAL020 (sixteen passes of a random
 * walk make several modes over 1.25x slower than the best).
 */
constexpr const char *kLintFixture = "lint-pricing-fixture";

SystemConfig
pricingSystem()
{
    SystemConfig sys = SystemConfig::a100Epyc();
    sys.deviceMemoryBytes = gib(1);
    return sys;
}

void
registerLintFixture()
{
    registerAllWorkloads();
    WorkloadRegistry &reg = WorkloadRegistry::instance();
    if (reg.find(kLintFixture))
        return;
    WorkloadInfo info;
    info.name = kLintFixture;
    reg.add(std::make_unique<LambdaWorkload>(
        info, [](SizeClass, const GeometryOverride &) {
            Job job;
            job.name = kLintFixture;
            job.buffers = {JobBuffer{"in", mib(768), true, false},
                           JobBuffer{"out", mib(768), false, true},
                           JobBuffer{"tmp", mib(16), false, false}};
            KernelDescriptor kd = makeStreamKernel(
                "k0", 4096, 256, mib(768), kib(16), 4, 4.0, 4.0, 1.0,
                0.5);
            kd.buffers = {
                KernelBufferUse{0, AccessPattern::Random, true, false,
                                1.0, true},
                KernelBufferUse{1, AccessPattern::Sequential, false,
                                true, 1.0, true},
                KernelBufferUse{2, AccessPattern::Sequential, false,
                                true, 1.0, true},
            };
            job.kernels = {kd};
            job.sequenceRepeats = 16;
            return job;
        }));
}

/** The lint finding lines of captured stderr, as a set. */
std::set<std::string>
findingLines(const std::string &err)
{
    std::set<std::string> lines;
    std::istringstream in(err);
    for (std::string line; std::getline(in, line);) {
        if (line.find("[UAL") != std::string::npos)
            lines.insert(line);
    }
    return lines;
}

TEST(LintPricing, BatchPrintsTheFindingsOfPerModeGates)
{
    registerLintFixture();
    LogLevel savedLevel = logLevel();
    setLogLevel(LogLevel::Inform);
    SystemConfig sys = pricingSystem();
    ExperimentOptions opts;
    opts.size = SizeClass::Tiny;
    opts.runs = 1;

    Job job = WorkloadRegistry::instance().get(kLintFixture).makeJob(
        opts.size);
    std::string subject = std::string(kLintFixture) + " @ " +
                          sizeClassName(opts.size);
    resetLintPrintDedup();
    ::testing::internal::CaptureStderr();
    for (TransferMode mode : allTransferModes)
        enforceLint(sys, job, subject, opts.lint, nullptr, nullptr,
                    &mode);
    std::set<std::string> expected =
        findingLines(::testing::internal::GetCapturedStderr());
    for (const char *code : {"UAL019", "UAL020", "UAL021"}) {
        bool seen = false;
        for (const std::string &line : expected)
            seen = seen || line.find(code) != std::string::npos;
        EXPECT_TRUE(seen) << code << " not printed; the fixture "
                          << "no longer exercises it";
    }

    std::vector<ExperimentPoint> points = allModes(kLintFixture, opts);
    for (unsigned jobs : {1u, 4u}) {
        resetLintPrintDedup();
        ::testing::internal::CaptureStderr();
        BatchResult batch = ParallelRunner(sys, jobs).runPoints(points);
        std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_TRUE(batch.allOk()) << "jobs=" << jobs;
        EXPECT_EQ(findingLines(err), expected) << "jobs=" << jobs;
    }
    resetLintPrintDedup();
    setLogLevel(savedLevel);
}

/** Lines of captured stderr that contain @p needle, in order. */
std::vector<std::string>
linesWith(const std::string &err, const std::string &needle)
{
    std::vector<std::string> lines;
    std::istringstream in(err);
    for (std::string line; std::getline(in, line);) {
        if (line.find(needle) != std::string::npos)
            lines.push_back(line);
    }
    return lines;
}

/** Line number of the first line of @p err containing @p needle, or
 * -1. */
int
firstLineWith(const std::string &err, const std::string &needle)
{
    std::istringstream in(err);
    int n = 0;
    for (std::string line; std::getline(in, line); ++n) {
        if (line.find(needle) != std::string::npos)
            return n;
    }
    return -1;
}

/** Two jobs of a batch: the lint fixture and saxpy, two modes each. */
std::vector<ExperimentPoint>
twoJobBatch()
{
    ExperimentOptions opts;
    opts.size = SizeClass::Tiny;
    opts.runs = 1;
    return {
        {kLintFixture, TransferMode::Standard, opts},
        {kLintFixture, TransferMode::Uvm, opts},
        {"saxpy", TransferMode::Async, opts},
        {"saxpy", TransferMode::UvmPrefetch, opts},
    };
}

/** Runs with Inform logging and a fresh print dedup; restores both. */
class PricingTask : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        registerLintFixture();
        savedLevel_ = logLevel();
        setLogLevel(LogLevel::Inform);
        resetLintPrintDedup();
    }

    void
    TearDown() override
    {
        resetLintPrintDedup();
        setLogLevel(savedLevel_);
    }

  private:
    LogLevel savedLevel_ = LogLevel::Warn;
};

TEST_F(PricingTask, OneAdvisorLinePerJobAndTheSameFindings)
{
    std::vector<ExperimentPoint> points = twoJobBatch();
    std::set<std::string> findings[2];
    for (unsigned jobs : {1u, 4u}) {
        resetLintPrintDedup();
        ::testing::internal::CaptureStderr();
        BatchResult batch =
            ParallelRunner(pricingSystem(), jobs).runPoints(points);
        std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_TRUE(batch.allOk()) << "jobs=" << jobs;
        std::vector<std::string> advisor = linesWith(err, "advisor: ");
        ASSERT_EQ(advisor.size(), 2u) << "jobs=" << jobs << "\n" << err;
        EXPECT_EQ(linesWith(err, std::string("advisor: ") +
                                     kLintFixture + " @ tiny")
                      .size(),
                  1u);
        EXPECT_EQ(linesWith(err, "advisor: saxpy @ tiny").size(), 1u);
        findings[jobs == 1 ? 0 : 1] = findingLines(err);
    }
    EXPECT_FALSE(findings[0].empty());
    EXPECT_EQ(findings[0], findings[1]);
}

TEST_F(PricingTask, PricerPointMergesOnlyAfterItsAdvisorLine)
{
    // The fixture's Standard point is fast and its Uvm point slow, so
    // at jobs 4 (two workers) the worker that runs the pricer point
    // also runs the job's pricing after it, while the other worker is
    // still busy: a merge that did not wait for the pricing would
    // print its marker before the advisor line.
    std::vector<ExperimentPoint> points = twoJobBatch();
    points.resize(2);
    for (unsigned jobs : {1u, 4u}) {
        resetLintPrintDedup();
        RunPolicy policy;
        policy.onPointMerged = [](std::size_t index,
                                  const PointOutcome &) {
            std::fprintf(stderr, "merged point %zu\n", index);
        };
        ::testing::internal::CaptureStderr();
        BatchResult batch =
            ParallelRunner(pricingSystem(), jobs).runPoints(points, policy);
        std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_TRUE(batch.allOk()) << "jobs=" << jobs;
        int advisor = firstLineWith(err, "advisor: ");
        int merged = firstLineWith(err, "merged point 0");
        ASSERT_GE(advisor, 0) << "jobs=" << jobs << "\n" << err;
        ASSERT_GE(merged, 0) << "jobs=" << jobs << "\n" << err;
        EXPECT_LT(advisor, merged) << "jobs=" << jobs << "\n" << err;
    }
}

TEST_F(PricingTask, CancelledBatchRunsNoPendingPricing)
{
    std::vector<ExperimentPoint> points = twoJobBatch();
    for (unsigned jobs : {1u, 4u}) {
        // Cancelled before it starts: no task runs, pricing included.
        std::atomic<bool> cancel{true};
        RunPolicy policy;
        policy.cancel = &cancel;
        ::testing::internal::CaptureStderr();
        BatchResult batch =
            ParallelRunner(pricingSystem(), jobs).runPoints(points, policy);
        std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_TRUE(linesWith(err, "advisor: ").empty()) << err;
        EXPECT_TRUE(findingLines(err).empty()) << err;
        for (const PointOutcome &out : batch.points)
            EXPECT_EQ(out.status, PointStatus::Cancelled);
    }

    // Cancelled once the first job's pricer point merges: serially the
    // second job's pricing has not started, so it never runs and its
    // pricer point ends cancelled with the rest.
    resetLintPrintDedup();
    std::atomic<bool> cancel{false};
    RunPolicy policy;
    policy.cancel = &cancel;
    policy.onPointMerged = [&](std::size_t index, const PointOutcome &) {
        if (index == 0)
            cancel.store(true, std::memory_order_release);
    };
    ::testing::internal::CaptureStderr();
    BatchResult batch =
        ParallelRunner(pricingSystem(), 1).runPoints(points, policy);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_TRUE(batch.points[0].ok);
    EXPECT_EQ(linesWith(err, "advisor: ").size(), 1u) << err;
    EXPECT_TRUE(linesWith(err, "advisor: saxpy").empty()) << err;
    for (std::size_t i = 1; i < points.size(); ++i)
        EXPECT_EQ(batch.points[i].status, PointStatus::Cancelled) << i;
}

/** The flag the cancel fixture's makeJob sets, when not null. */
std::atomic<std::atomic<bool> *> gCancelOnBuild{nullptr};
constexpr const char *kCancelFixture = "cancel-on-build-fixture";

/** saxpy's job, except that building it first sets *gCancelOnBuild. */
void
registerCancelFixture()
{
    registerAllWorkloads();
    WorkloadRegistry &reg = WorkloadRegistry::instance();
    if (reg.find(kCancelFixture))
        return;
    WorkloadInfo info;
    info.name = kCancelFixture;
    reg.add(std::make_unique<LambdaWorkload>(
        info, [](SizeClass size, const GeometryOverride &geometry) {
            if (std::atomic<bool> *cancel = gCancelOnBuild.load())
                cancel->store(true, std::memory_order_release);
            return WorkloadRegistry::instance().get("saxpy").makeJob(
                size, geometry);
        }));
}

TEST_F(PricingTask, CancelDuringThePricerSimulationKeepsItsResult)
{
    // At jobs 4 (two workers) each pricer point is the last task of
    // its queue, so its owner simulates it before its pricing. The
    // cancel fixture's point cancels the batch as its simulation
    // builds the job; the lint fixture's slow Uvm point keeps the
    // other worker from reaching the fixture's pricing first. The
    // skipped pricing must not cancel the finished simulation, which
    // is merged and journaled as a real outcome.
    registerCancelFixture();
    ExperimentOptions opts;
    opts.size = SizeClass::Tiny;
    opts.runs = 1;
    std::vector<ExperimentPoint> points = {
        {kCancelFixture, TransferMode::Uvm, opts},
        {kLintFixture, TransferMode::Uvm, opts},
    };
    std::atomic<bool> cancel{false};
    RunPolicy policy;
    policy.cancel = &cancel;
    PointStatus merged = PointStatus::Cancelled;
    policy.onPointMerged = [&](std::size_t index, const PointOutcome &out) {
        if (index == 0)
            merged = out.status;
    };
    gCancelOnBuild = &cancel;
    ::testing::internal::CaptureStderr();
    BatchResult batch =
        ParallelRunner(pricingSystem(), 4).runPoints(points, policy);
    std::string err = ::testing::internal::GetCapturedStderr();
    gCancelOnBuild = nullptr;
    EXPECT_TRUE(cancel.load());
    EXPECT_TRUE(
        linesWith(err, std::string("advisor: ") + kCancelFixture).empty())
        << err;
    const PointOutcome &out = batch.points[0];
    EXPECT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.status, PointStatus::Ok);
    EXPECT_EQ(merged, PointStatus::Ok);
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_EQ(out.result.workload, kCancelFixture);
    EXPECT_EQ(out.result.runs.size(), 1u);
    EXPECT_GT(out.result.counters.launches, 0u);
}

TEST_F(PricingTask, BusyTimeCoversThePricing)
{
    std::vector<ExperimentPoint> points = twoJobBatch();
    for (unsigned jobs : {1u, 4u}) {
        BatchResult batch =
            ParallelRunner(pricingSystem(), jobs).runPoints(points);
        double pointMs = 0.0;
        for (const PointOutcome &out : batch.points)
            pointMs += out.metrics.wallMs;
        EXPECT_GT(batch.metrics.pricingMs, 0.0) << "jobs=" << jobs;
        EXPECT_DOUBLE_EQ(batch.metrics.busyMs,
                         pointMs + batch.metrics.pricingMs)
            << "jobs=" << jobs;

        std::vector<ExperimentPoint> unlinted = points;
        for (ExperimentPoint &point : unlinted)
            point.opts.lint = LintMode::Off;
        EXPECT_EQ(ParallelRunner(pricingSystem(), jobs)
                      .runPoints(unlinted)
                      .metrics.pricingMs,
                  0.0);
    }
}

/** How many more times the pricing-fault fixture's makeJob throws. */
std::atomic<int> gFailingJobBuilds{0};
constexpr const char *kPricingFaultFixture = "pricing-fault-fixture";

/** saxpy's job, except that building it throws while
 * gFailingJobBuilds is positive. */
void
registerPricingFaultFixture()
{
    registerAllWorkloads();
    WorkloadRegistry &reg = WorkloadRegistry::instance();
    if (reg.find(kPricingFaultFixture))
        return;
    WorkloadInfo info;
    info.name = kPricingFaultFixture;
    reg.add(std::make_unique<LambdaWorkload>(
        info, [](SizeClass size, const GeometryOverride &geometry) {
            if (gFailingJobBuilds.fetch_sub(1) > 0)
                throw std::runtime_error("job construction failed");
            return WorkloadRegistry::instance().get("saxpy").makeJob(
                size, geometry);
        }));
}

TEST_F(PricingTask, FailedPricingFailsItsPricerPoint)
{
    // A one-point batch runs serially, pricing first: the pricing
    // task's three attempts use up the failing builds and the
    // simulation then succeeds. The point must still end as it did
    // when its one attempt loop ran the full gate before simulating.
    registerPricingFaultFixture();
    ExperimentOptions opts;
    opts.size = SizeClass::Tiny;
    opts.runs = 1;
    std::vector<ExperimentPoint> points = {
        {kPricingFaultFixture, TransferMode::Uvm, opts}};
    for (unsigned jobs : {1u, 4u}) {
        gFailingJobBuilds = 3;
        RunPolicy policy;
        policy.retries = 2;
        BatchResult batch =
            ParallelRunner(SystemConfig::a100Epyc(), jobs)
                .runPoints(points, policy);
        EXPECT_LE(gFailingJobBuilds.load(), 0) << "jobs=" << jobs;
        const PointOutcome &out = batch.points[0];
        EXPECT_FALSE(out.ok);
        EXPECT_EQ(out.status, PointStatus::Quarantined);
        EXPECT_EQ(out.error, "job construction failed");
        EXPECT_EQ(out.attempts, 3u);
        ASSERT_EQ(out.attemptTrail.size(), 3u);
        for (const PointAttempt &attempt : out.attemptTrail) {
            EXPECT_EQ(attempt.status, PointStatus::Failed);
            EXPECT_EQ(attempt.error, "job construction failed");
        }
        EXPECT_EQ(out.result.counters.launches, 0u);
    }
    gFailingJobBuilds = 0;
}

// --- Job-file points ---------------------------------------------------

/** A small job file whose name holds a control character. */
std::shared_ptr<const JobFile>
controlCharJobFile()
{
    const std::string contents = "[job]\n"
                                 "name = jacobi\x01stencil\n"
                                 "[buffer.0]\n"
                                 "name = grid\n"
                                 "mib = 8\n"
                                 "host_consumed = true\n"
                                 "[kernel.0]\n"
                                 "name = step\n"
                                 "blocks = 64\n"
                                 "total_load_mib = 8\n"
                                 "buffers = 0:tiled:rw\n";
    auto file = std::make_shared<JobFile>();
    file->job = jobFromConfig(KvConfig::fromString(contents, "ctl.ini"));
    file->contentHash = jobFileBaseSeed(contents, false);
    return file;
}

TEST(JobFilePoints, RunOutsideTheRegistryAndTraceToValidJson)
{
    // A job file's points run its own job, not a registry workload,
    // and a control character in the job's name is escaped in the
    // Chrome export (an unescaped 0x01 makes the file invalid JSON).
    std::shared_ptr<const JobFile> file = controlCharJobFile();
    ExperimentOptions opts;
    opts.runs = 0;
    opts.baseSeed = 1;
    opts.lint = LintMode::Off;
    opts.trace = true;
    std::vector<ExperimentPoint> points;
    for (TransferMode mode : {TransferMode::Standard, TransferMode::Uvm})
        points.push_back(
            ExperimentPoint{file->job.name, mode, opts, file});
    ParallelRunner runner(SystemConfig::a100Epyc(), 2);
    std::vector<ExperimentResult> results = runner.runPoints(points).results();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_GT(results[1].counters.faults, 0u);

    std::vector<ChromeTraceJob> jobs;
    for (const ExperimentResult &res : results) {
        EXPECT_EQ(res.workload, file->job.name);
        EXPECT_FALSE(res.trace.empty());
        jobs.push_back(ChromeTraceJob{
            res.workload + "/" + transferModeName(res.mode), &res.trace});
    }
    std::ostringstream out;
    writeChromeTrace(out, jobs);
    EXPECT_NE(out.str().find("jacobi\\u0001stencil/standard"),
              std::string::npos);
    JsonValue parsed;
    std::string error;
    EXPECT_TRUE(parseJson(out.str(), parsed, error)) << error;
}

TEST(JobFilePoints, ContentHashIsTheIdentityOnlyWhenAttached)
{
    // A registry point hashes as it always did; a job-file point's
    // identity follows its content hash.
    ExperimentOptions opts;
    ExperimentPoint registry{"saxpy", TransferMode::Uvm, opts};
    ExperimentPoint withNull = registry;
    withNull.jobFile = nullptr;
    EXPECT_EQ(pointConfigHash(registry), pointConfigHash(withNull));

    std::shared_ptr<const JobFile> file = controlCharJobFile();
    auto edited = std::make_shared<JobFile>(*file);
    edited->contentHash ^= 1;
    ExperimentPoint a{file->job.name, TransferMode::Uvm, opts, file};
    ExperimentPoint b{file->job.name, TransferMode::Uvm, opts, edited};
    EXPECT_NE(pointConfigHash(a), pointConfigHash(b));
    EXPECT_NE(pointConfigHash(a),
              pointConfigHash(ExperimentPoint{file->job.name,
                                              TransferMode::Uvm, opts}));
}

} // namespace
} // namespace uvmasync
