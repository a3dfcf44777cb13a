/**
 * @file
 * Tests for the phase timeline, its Gantt renderer, the Device's
 * recorded timelines and the Figure-14 batch charts.
 */

#include <gtest/gtest.h>

#include "core/batch_pipeline.hh"
#include "runtime/device.hh"
#include "workloads/registry.hh"

namespace uvmasync
{
namespace
{

TEST(Timeline, EmptyTimeline)
{
    Timeline tl;
    EXPECT_EQ(tl.makespan(), 0u);
    EXPECT_EQ(tl.phases().size(), 0u);
    EXPECT_NE(tl.gantt().find("empty"), std::string::npos);
}

TEST(Timeline, ZeroLengthPhasesBecomeInstants)
{
    // Regression: zero-length phases used to vanish entirely. They
    // still stay off the Gantt chart (no occupancy), but they are
    // kept as instants and surface in the trace exporter.
    Timeline tl;
    tl.setLaneName(0, "cpu");
    tl.add(PhaseKind::Alloc, "nop", nanoseconds(5), nanoseconds(5),
           0);
    EXPECT_EQ(tl.phases().size(), 0u);
    EXPECT_EQ(tl.makespan(), 0u);
    ASSERT_EQ(tl.instants().size(), 1u);
    EXPECT_EQ(tl.instants()[0].label, "nop");

    Tracer tracer;
    exportTimelineToTrace(tl, tracer);
    ASSERT_EQ(tracer.events().size(), 1u);
    const TraceEvent &ev = tracer.events()[0];
    EXPECT_TRUE(ev.isInstant());
    EXPECT_EQ(ev.start, nanoseconds(5));
    EXPECT_EQ(ev.category, TraceCategory::Phase);
    EXPECT_EQ(ev.name, TraceName::PhaseAlloc);
    EXPECT_EQ(tracer.laneNames()[ev.lane], "cpu");
}

TEST(Timeline, ExportOrdersSpansForNesting)
{
    // The Device records phases in completion order; the exporter
    // must re-sort per lane so containment windows arrive
    // outermost-first and the trace checker accepts them.
    Timeline tl;
    tl.setLaneName(0, "gpu");
    tl.add(PhaseKind::Kernel, "inner", nanoseconds(10),
           nanoseconds(20), 0);
    tl.add(PhaseKind::Kernel, "outer", 0, nanoseconds(40), 0);

    Tracer tracer;
    exportTimelineToTrace(tl, tracer);
    ASSERT_EQ(tracer.events().size(), 2u);
    EXPECT_EQ(tracer.events()[0].label, "outer");
    EXPECT_EQ(tracer.events()[1].label, "inner");
}

TEST(Timeline, MakespanIsLatestEnd)
{
    Timeline tl;
    tl.add(PhaseKind::Alloc, "a", 0, nanoseconds(10), 0);
    tl.add(PhaseKind::Kernel, "k", nanoseconds(5), nanoseconds(30),
           1);
    EXPECT_EQ(tl.makespan(), nanoseconds(30));
}

TEST(Timeline, GanttRendersGlyphsPerLane)
{
    Timeline tl;
    tl.setLaneName(0, "cpu");
    tl.setLaneName(1, "gpu");
    tl.add(PhaseKind::Alloc, "a", 0, nanoseconds(50), 0);
    tl.add(PhaseKind::Kernel, "k", nanoseconds(50), nanoseconds(100),
           1);
    std::string chart = tl.gantt(40);
    EXPECT_NE(chart.find("cpu"), std::string::npos);
    EXPECT_NE(chart.find("gpu"), std::string::npos);
    EXPECT_NE(chart.find('a'), std::string::npos);
    EXPECT_NE(chart.find('#'), std::string::npos);
    // The cpu row's first half is alloc, second half idle.
    std::string cpuRow = chart.substr(0, chart.find('\n'));
    EXPECT_NE(cpuRow.find("aaaa"), std::string::npos);
    EXPECT_NE(cpuRow.find("...."), std::string::npos);
}

TEST(Timeline, GlyphsAreDistinct)
{
    EXPECT_NE(phaseGlyph(PhaseKind::Alloc),
              phaseGlyph(PhaseKind::Free));
    EXPECT_NE(phaseGlyph(PhaseKind::TransferIn),
              phaseGlyph(PhaseKind::TransferOut));
}

struct DeviceTimelineFixture : public ::testing::Test
{
    DeviceTimelineFixture() { registerAllWorkloads(); }
};

TEST_F(DeviceTimelineFixture, RecordsAllPhaseKinds)
{
    Job job = WorkloadRegistry::instance().get("saxpy").makeJob(
        SizeClass::Small);
    Device device(SystemConfig::a100Epyc());
    RunResult run = device.run(job, TransferMode::Standard);

    bool sawAlloc = false, sawIn = false, sawKernel = false,
         sawOut = false, sawFree = false;
    for (const Phase &phase : run.timeline.phases()) {
        switch (phase.kind) {
          case PhaseKind::Alloc: sawAlloc = true; break;
          case PhaseKind::TransferIn: sawIn = true; break;
          case PhaseKind::Kernel: sawKernel = true; break;
          case PhaseKind::TransferOut: sawOut = true; break;
          case PhaseKind::Free: sawFree = true; break;
        }
    }
    EXPECT_TRUE(sawAlloc);
    EXPECT_TRUE(sawIn);
    EXPECT_TRUE(sawKernel);
    EXPECT_TRUE(sawOut);
    EXPECT_TRUE(sawFree);
    EXPECT_EQ(run.timeline.makespan(), run.wallEnd);
}

TEST_F(DeviceTimelineFixture, KernelPhasesMatchLaunchCount)
{
    Job job = WorkloadRegistry::instance().get("srad").makeJob(
        SizeClass::Small);
    Device device(SystemConfig::a100Epyc());
    RunResult run = device.run(job, TransferMode::UvmPrefetch);
    std::size_t kernels = 0;
    for (const Phase &phase : run.timeline.phases()) {
        if (phase.kind == PhaseKind::Kernel)
            ++kernels;
    }
    EXPECT_EQ(kernels, job.launchCount());
}

TEST_F(DeviceTimelineFixture, UvmDemandOverlapsKernelLane)
{
    Job job = WorkloadRegistry::instance().get("saxpy").makeJob(
        SizeClass::Small);
    Device device(SystemConfig::a100Epyc());
    RunResult run = device.run(job, TransferMode::Uvm);
    // Demand migration phases sit on the DMA lane inside the kernel
    // window.
    bool sawDemand = false;
    for (const Phase &phase : run.timeline.phases()) {
        if (phase.kind == PhaseKind::TransferIn && phase.lane == 1 &&
            phase.label.rfind("demand", 0) == 0)
            sawDemand = true;
    }
    EXPECT_TRUE(sawDemand);
}

TEST(BatchTimelines, PipelinedMakespanMatchesScheduler)
{
    std::vector<TimeBreakdown> jobs(5, TimeBreakdown{2e9, 1e9, 3e9});
    BatchScheduleResult sched = scheduleBatch(jobs);
    BatchTimelines charts = buildBatchTimelines(jobs);
    EXPECT_NEAR(static_cast<double>(charts.serial.makespan()),
                sched.serialPs, 10.0);
    EXPECT_NEAR(static_cast<double>(charts.pipelined.makespan()),
                sched.pipelinedPs, 10.0);
    EXPECT_LE(charts.pipelined.makespan(),
              charts.serial.makespan());
}

TEST(BatchTimelines, GpuLaneBusyIdenticalAcrossModels)
{
    std::vector<TimeBreakdown> jobs(4, TimeBreakdown{2e9, 1e9, 3e9});
    BatchTimelines charts = buildBatchTimelines(jobs);
    // The pipeline hides CPU work; GPU work is conserved.
    auto gpuWork = [](const Timeline &tl) {
        Tick busy = 0;
        for (const Phase &phase : tl.phases()) {
            if (phase.lane == 1)
                busy += phase.end - phase.start;
        }
        return busy;
    };
    EXPECT_EQ(gpuWork(charts.serial), gpuWork(charts.pipelined));
}

} // namespace
} // namespace uvmasync
