/**
 * @file
 * Tests for the experiment harness, reporting helpers, sweeps and the
 * Section 6 batch-pipeline scheduler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/batch_pipeline.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/sweep.hh"

namespace uvmasync
{
namespace
{

ExperimentOptions
smallOpts()
{
    ExperimentOptions opts;
    opts.size = SizeClass::Small;
    opts.runs = 10;
    return opts;
}

TEST(Experiment, ProducesRequestedRuns)
{
    Experiment e;
    ExperimentResult res =
        e.run("vector_seq", TransferMode::Standard, smallOpts());
    EXPECT_EQ(res.runs.size(), 10u);
    EXPECT_GT(res.clean.overallPs(), 0.0);
    EXPECT_EQ(res.workload, "vector_seq");
}

TEST(Experiment, CleanResultIsDeterministic)
{
    Experiment e;
    ExperimentResult a =
        e.run("saxpy", TransferMode::Uvm, smallOpts());
    ExperimentResult b =
        e.run("saxpy", TransferMode::Uvm, smallOpts());
    EXPECT_DOUBLE_EQ(a.clean.overallPs(), b.clean.overallPs());
    EXPECT_EQ(a.counters.faults, b.counters.faults);
    for (std::size_t i = 0; i < a.runs.size(); ++i)
        EXPECT_DOUBLE_EQ(a.runs[i].overallPs(),
                         b.runs[i].overallPs());
}

TEST(Experiment, NoiseSeedSharedAcrossModes)
{
    // Same-run machine conditions across modes: the alloc component's
    // multiplicative noise factor matches run-for-run.
    Experiment e;
    ExperimentResult std_res =
        e.run("saxpy", TransferMode::Standard, smallOpts());
    ExperimentResult async_res =
        e.run("saxpy", TransferMode::Async, smallOpts());
    for (std::size_t i = 0; i < std_res.runs.size(); ++i) {
        double fa = std_res.runs[i].kernelPs /
                    std_res.clean.kernelPs;
        double fb = async_res.runs[i].kernelPs /
                    async_res.clean.kernelPs;
        EXPECT_NEAR(fa, fb, 1e-9);
    }
}

TEST(Experiment, RunAllModesCoversFive)
{
    Experiment e;
    ModeSet set = e.runAllModes("vector_seq", smallOpts());
    ASSERT_EQ(set.size(), 5u);
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_EQ(set[i].mode, allTransferModes[i]);
}

TEST(Experiment, MeanBreakdownAveragesRuns)
{
    Experiment e;
    ExperimentResult res =
        e.run("vector_seq", TransferMode::Standard, smallOpts());
    SampleSet overall = res.overallSamples();
    EXPECT_NEAR(res.meanBreakdown().overallPs(), overall.mean(),
                overall.mean() * 1e-9);
}

// --- Report helpers -----------------------------------------------------

ModeSet
syntheticModes(double base, double uvmFactor)
{
    ModeSet set;
    for (TransferMode m : allTransferModes) {
        ExperimentResult r;
        r.workload = "synthetic";
        r.mode = m;
        double scale = usesUvm(m) ? uvmFactor : 1.0;
        r.clean = TimeBreakdown{base * scale, base * scale,
                                base * scale};
        set.push_back(r);
    }
    return set;
}

TEST(Report, FindModeLocatesEntries)
{
    ModeSet set = syntheticModes(1e9, 0.5);
    EXPECT_EQ(findMode(set, TransferMode::Uvm).mode,
              TransferMode::Uvm);
}

TEST(Report, GeomeanImprovementMatchesConstruction)
{
    std::vector<ModeSet> all = {syntheticModes(1e9, 0.5),
                                syntheticModes(2e9, 0.5)};
    // uvm runs at half the time -> 2x speedup -> +100% improvement.
    EXPECT_NEAR(geomeanImprovement(all, TransferMode::Uvm), 1.0,
                1e-9);
    EXPECT_NEAR(geomeanImprovement(all, TransferMode::Async), 0.0,
                1e-9);
}

TEST(Report, ComponentSaving)
{
    std::vector<ModeSet> all = {syntheticModes(1e9, 0.25)};
    EXPECT_NEAR(geomeanComponentSaving(all, TransferMode::Uvm, 1),
                0.75, 1e-9);
}

TEST(Report, BreakdownTableShape)
{
    std::vector<ModeSet> all = {syntheticModes(1e9, 0.5)};
    std::string out = breakdownTable(all).toString();
    // Six columns: the header line (under the top border) has 7 bars.
    std::string header = out.substr(out.find('\n') + 1);
    header = header.substr(0, header.find('\n'));
    EXPECT_EQ(std::count(header.begin(), header.end(), '|'), 7);
    EXPECT_NE(out.find("uvm_prefetch_async"), std::string::npos);
}

TEST(Report, ComparisonTableRendersDeltas)
{
    TextTable t = comparisonTable(
        {{"metric", 0.21, 0.25}, {"other", -0.04, -0.02}});
    std::string out = t.toString();
    EXPECT_NE(out.find("+21.00%"), std::string::npos);
    EXPECT_NE(out.find("+4.00%"), std::string::npos);
}

// --- Sweeps -----------------------------------------------------------

/** Run a sweep grid as one batch, as `uvmasync sweep` does. */
std::vector<SweepPoint>
runSweep(const SweepGrid &grid, const RunPolicy &policy = {},
         const SystemConfig &system = SystemConfig::a100Epyc())
{
    ParallelRunner runner(system);
    BatchResult batch = runner.runPoints(grid.points, policy);
    reportDegradedBatch(grid.points, batch);
    return assembleSweepPoints(grid, batch);
}

TEST(Sweep, BlockSweepAppliesGeometry)
{
    auto points =
        runSweep(blockSweepGrid("vector_seq", {512, 64}, smallOpts()));
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].value, 512u);
    ASSERT_EQ(points[0].modes.size(), 5u);
}

TEST(Sweep, ThreadSweepChangesKernelTime)
{
    auto points = runSweep(
        threadSweepGrid("vector_seq", {1024, 32}, 64, smallOpts()));
    double wide = findMode(points[0].modes, TransferMode::Standard)
                      .clean.kernelPs;
    double narrow = findMode(points[1].modes, TransferMode::Standard)
                        .clean.kernelPs;
    EXPECT_GT(narrow, wide * 2.0);
}

TEST(Sweep, SharedMemSweepChangesResults)
{
    auto points = runSweep(sharedMemSweepGrid(
        "vector_seq", {kib(4), kib(128)}, smallOpts()));
    ASSERT_EQ(points.size(), 2u);
    double tiny = findMode(points[0].modes, TransferMode::Async)
                      .clean.kernelPs;
    double huge = findMode(points[1].modes, TransferMode::Async)
                      .clean.kernelPs;
    EXPECT_NE(tiny, huge);
}

TEST(Sweep, DegradedSweepReportsOnceToStderr)
{
    // A one-event watchdog ceiling trips the sweep's cells; the one
    // degraded report prints its banner once and names each
    // quarantined cell in its robustness table.
    SystemConfig system = SystemConfig::a100Epyc();
    system.watchdog.maxEvents = 1;
    ExperimentOptions opts = smallOpts();
    opts.runs = 1;
    RunPolicy policy;
    policy.retries = 0;
    ::testing::internal::CaptureStderr();
    auto points =
        runSweep(blockSweepGrid("vector_seq", {512}, opts), policy, system);
    std::string err = ::testing::internal::GetCapturedStderr();

    ASSERT_EQ(points.size(), 1u);
    std::size_t failed = 0;
    for (const ExperimentResult &res : points[0].modes)
        failed += res.clean.overallPs() == 0.0 ? 1 : 0;
    ASSERT_GT(failed, 0u) << "the ceiling no longer trips a cell";
    std::string banner = "DEGRADED RUN: " + std::to_string(failed) +
                         " of 5 points quarantined";
    EXPECT_NE(err.find(banner), std::string::npos) << err;
    EXPECT_EQ(err.find("DEGRADED RUN", err.find(banner) + 1),
              std::string::npos)
        << "banner printed twice:\n" << err;
    EXPECT_NE(err.find("== robustness (quarantined points) =="),
              std::string::npos)
        << err;
    std::size_t rows = 0;
    for (std::size_t pos = err.find("| vector_seq ");
         pos != std::string::npos;
         pos = err.find("| vector_seq ", pos + 1))
        ++rows;
    EXPECT_EQ(rows, failed) << err;
}

// --- Batch pipeline (Section 6) ----------------------------------------

TEST(BatchPipeline, EmptyBatch)
{
    BatchScheduleResult res = scheduleBatch({});
    EXPECT_DOUBLE_EQ(res.serialPs, 0.0);
    EXPECT_DOUBLE_EQ(res.pipelinedPs, 0.0);
}

TEST(BatchPipeline, ImprovementSentinelOnEmptyBatch)
{
    // The documented sentinel: no jobs -> improvement() is exactly
    // 0.0, not NaN or a division blow-up.
    BatchScheduleResult empty = scheduleBatch({});
    EXPECT_DOUBLE_EQ(empty.improvement(), 0.0);

    // Same sentinel for a default-constructed (serialPs == 0) result
    // and for all-zero jobs.
    BatchScheduleResult fresh;
    EXPECT_DOUBLE_EQ(fresh.improvement(), 0.0);
    BatchScheduleResult zeros =
        scheduleBatch(std::vector<TimeBreakdown>(3));
    EXPECT_DOUBLE_EQ(zeros.improvement(), 0.0);
}

TEST(SweepDeath, EmptyValueListsAssert)
{
    // Empty sweep grids are a usage error, not a silent empty result.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(blockSweepGrid("vector_seq", {}, smallOpts()),
                 "at least one block count");
    EXPECT_DEATH(threadSweepGrid("vector_seq", {}, 64, smallOpts()),
                 "at least one thread count");
    EXPECT_DEATH(sharedMemSweepGrid("vector_seq", {}, smallOpts()),
                 "at least one carveout");
}

TEST(BatchPipeline, SerialIsSumOfJobs)
{
    std::vector<TimeBreakdown> jobs(4, TimeBreakdown{1e9, 2e9, 3e9});
    BatchScheduleResult res = scheduleBatch(jobs);
    EXPECT_DOUBLE_EQ(res.serialPs, 4.0 * 6e9);
}

TEST(BatchPipeline, PipelinedNeverSlower)
{
    std::vector<TimeBreakdown> jobs(6, TimeBreakdown{2e9, 1e9, 3e9});
    BatchScheduleResult res = scheduleBatch(jobs);
    EXPECT_LE(res.pipelinedPs, res.serialPs);
    EXPECT_GT(res.improvement(), 0.0);
}

TEST(BatchPipeline, AllocationHidesBehindKernels)
{
    // Allocation comparable to the GPU phase: overlap should hide
    // most of it (the paper's "more than 30%" claim).
    std::vector<TimeBreakdown> jobs(8, TimeBreakdown{4e9, 2e9, 4e9});
    BatchScheduleResult res = scheduleBatch(jobs);
    EXPECT_GT(res.improvement(), 0.25);
}

TEST(BatchPipeline, SingleJobGainsLittle)
{
    std::vector<TimeBreakdown> jobs(1, TimeBreakdown{4e9, 2e9, 4e9});
    BatchScheduleResult res = scheduleBatch(jobs);
    EXPECT_LT(res.improvement(), 0.05);
}

} // namespace
} // namespace uvmasync
