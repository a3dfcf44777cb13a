/**
 * @file
 * Tracer core unit tests plus exporter golden files.
 *
 * Covers the recording rules (lane registration, zero-length span
 * dropping, category filtering), the structural checker's accept and
 * reject cases, the compile-time no-op sink, unit-level checks of the
 * Chrome and metrics exporters on hand-built traces, and golden-file
 * comparisons of full saxpy@tiny exports under the explicit-memcpy
 * and UVM modes.
 *
 * Updating the goldens after an *intentional* change to the tracer,
 * the instrumentation hooks, or the timing model:
 *
 *     ./build/tests/test_trace --update-golden
 *     git diff tests/golden/   # review every changed span!
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>

#include "core/experiment.hh"
#include "trace/chrome_export.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"
#include "trace_check.hh"
#include "workloads/registry.hh"

namespace uvmasync
{
namespace
{

bool gUpdateGolden = false;

std::string
goldenPath(const std::string &name)
{
    return std::string(UVMASYNC_GOLDEN_DIR) + "/" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
compareOrUpdate(const std::string &name, const std::string &actual)
{
    std::string path = goldenPath(name);
    if (gUpdateGolden) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write golden " << path;
        out << actual;
        SUCCEED() << "updated " << path;
        return;
    }
    std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << "golden " << path << " is missing or empty; regenerate "
        << "with: test_trace --update-golden";
    EXPECT_EQ(expected, actual)
        << "exported trace changed. If intentional, regenerate with "
        << "--update-golden and review the diff.";
}

// --- Recording rules ---------------------------------------------------

TEST(TracerCore, LanesAreDenseAndStable)
{
    Tracer t;
    EXPECT_EQ(t.lane("pcie.h2d"), 0u);
    EXPECT_EQ(t.lane("gpu"), 1u);
    EXPECT_EQ(t.lane("pcie.h2d"), 0u); // get-or-create is idempotent
    EXPECT_EQ(t.laneCount(), 2u);
    EXPECT_EQ(t.laneNames()[1], "gpu");
    EXPECT_EQ(std::count(t.laneNames().begin(), t.laneNames().end(),
                         "nope"),
              0);
    EXPECT_EQ(t.laneNames()[0], "pcie.h2d");
}

TEST(TracerCore, ZeroLengthSpansAreDropped)
{
    Tracer t;
    std::uint32_t lane = t.lane("gpu");
    t.span(TraceCategory::Kernel, TraceName::TileCompute, lane, 100,
           100);
    EXPECT_TRUE(t.empty());
    // The same moment recorded as an instant is kept.
    t.instant(TraceCategory::Kernel, TraceName::DataStall, lane, 100);
    ASSERT_EQ(t.events().size(), 1u);
    EXPECT_TRUE(t.events()[0].isInstant());
    EXPECT_EQ(t.events()[0].duration(), 0u);
}

TEST(TracerCore, CategoryFilterDropsAtRecordTime)
{
    Tracer t;
    t.setCategoryFilter(traceCategoryBit(TraceCategory::Pcie));
    EXPECT_TRUE(t.enabled(TraceCategory::Pcie));
    EXPECT_FALSE(t.enabled(TraceCategory::Kernel));

    std::uint32_t lane = t.lane("x");
    t.span(TraceCategory::Kernel, TraceName::TileCompute, lane, 0, 10);
    t.instant(TraceCategory::Fault, TraceName::FaultRaise, lane, 5);
    EXPECT_TRUE(t.empty());
    t.span(TraceCategory::Pcie, TraceName::PinnedCopy, lane, 0, 10);
    EXPECT_EQ(t.events().size(), 1u);
}

TEST(TracerCore, WallEndTracksLatestEvent)
{
    Tracer t;
    EXPECT_EQ(t.wallEnd(), 0u);
    std::uint32_t lane = t.lane("x");
    t.span(TraceCategory::Pcie, TraceName::PinnedCopy, lane, 0, 500);
    t.instant(TraceCategory::Sim, TraceName::EventDispatch, lane, 900);
    EXPECT_EQ(t.wallEnd(), 900u);
    t.clear();
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.laneCount(), 0u);
    EXPECT_EQ(t.wallEnd(), 0u);
}

TEST(TracerCore, SlugTablesCoverEveryOrdinal)
{
    EXPECT_STREQ(traceCategoryName(TraceCategory::Pcie), "pcie");
    EXPECT_STREQ(traceCategoryName(TraceCategory::Phase), "phase");
    EXPECT_STREQ(traceNameStr(TraceName::FaultBatch), "fault_batch");
    EXPECT_STREQ(traceNameStr(TraceName::PhaseFree), "free");
}

// --- Structural checker ------------------------------------------------

TEST(TraceCheck, AcceptsProperNesting)
{
    Tracer t;
    std::uint32_t a = t.lane("a");
    std::uint32_t b = t.lane("b");
    t.span(TraceCategory::Phase, TraceName::PhaseKernel, a, 0, 100);
    t.span(TraceCategory::Kernel, TraceName::KernelLaunch, a, 0, 40);
    t.span(TraceCategory::Kernel, TraceName::TileCompute, a, 40, 100);
    t.span(TraceCategory::Pcie, TraceName::PinnedCopy, b, 10, 90);
    EXPECT_TRUE(checkTrace(t).ok);
}

TEST(TraceCheck, RejectsOutOfOrderStarts)
{
    Tracer t;
    std::uint32_t a = t.lane("a");
    t.span(TraceCategory::Pcie, TraceName::PinnedCopy, a, 50, 60);
    t.span(TraceCategory::Pcie, TraceName::PinnedCopy, a, 10, 20);
    TraceCheckResult res = checkTrace(t);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.first().find("predecessor"), std::string::npos);
}

TEST(TraceCheck, RejectsHalfOverlap)
{
    Tracer t;
    std::uint32_t a = t.lane("a");
    t.span(TraceCategory::Pcie, TraceName::PinnedCopy, a, 0, 50);
    t.span(TraceCategory::Pcie, TraceName::PinnedCopy, a, 25, 75);
    EXPECT_FALSE(checkTrace(t).ok);

    // Same windows at equal starts, inner-first: also a half-overlap
    // (the outermost span must be recorded first).
    Tracer u;
    std::uint32_t c = u.lane("c");
    u.span(TraceCategory::Pcie, TraceName::PinnedCopy, c, 0, 40);
    u.span(TraceCategory::Pcie, TraceName::PinnedCopy, c, 0, 100);
    EXPECT_FALSE(checkTrace(u).ok);
}

TEST(TraceCheck, InstantsAreExemptFromOrdering)
{
    Tracer t;
    std::uint32_t a = t.lane("a");
    t.span(TraceCategory::Fault, TraceName::FaultBatch, a, 100, 200);
    // A raise landing inside the previous batch's window, and one
    // before it, are both by-design legal.
    t.instant(TraceCategory::Fault, TraceName::FaultRaise, a, 150);
    t.instant(TraceCategory::Fault, TraceName::FaultRaise, a, 10);
    t.span(TraceCategory::Fault, TraceName::FaultBatch, a, 200, 300);
    EXPECT_TRUE(checkTrace(t).ok);
}

TEST(TraceCheck, DisjointLanesDoNotInteract)
{
    Tracer t;
    std::uint32_t a = t.lane("a");
    std::uint32_t b = t.lane("b");
    // Interleaved recording across lanes with overlapping windows is
    // fine; only same-lane half-overlaps are violations.
    t.span(TraceCategory::Pcie, TraceName::PinnedCopy, a, 0, 50);
    t.span(TraceCategory::Pcie, TraceName::Writeback, b, 25, 75);
    t.span(TraceCategory::Pcie, TraceName::PinnedCopy, a, 60, 70);
    EXPECT_TRUE(checkTrace(t).ok);
}

// --- Compile-time no-op sink -------------------------------------------

/**
 * Compile-time no-op sink with the Tracer recording interface: every
 * member is constexpr and the type is empty, so an instrumented call
 * site instantiated with it folds to nothing.
 */
struct NullTraceSink
{
    static constexpr bool enabled(TraceCategory) { return false; }

    static constexpr void
    span(TraceCategory, TraceName, std::uint32_t, Tick, Tick,
         std::uint64_t = 0, std::uint64_t = 0)
    {
    }

    static constexpr void
    instant(TraceCategory, TraceName, std::uint32_t, Tick,
            std::uint64_t = 0)
    {
    }
};

/** An instrumented call site folded over the no-op sink. */
constexpr bool
nullSinkFoldsAway()
{
    if (NullTraceSink::enabled(TraceCategory::Pcie))
        return false;
    NullTraceSink::span(TraceCategory::Pcie, TraceName::PinnedCopy, 0,
                        0, 100, 42);
    NullTraceSink::instant(TraceCategory::Fault, TraceName::FaultRaise,
                           0, 5);
    return true;
}

// Evaluated entirely at compile time: the sink is stateless, every
// hook is constexpr, and enabled() is a constant false — an
// instrumented template body instantiated with NullTraceSink
// generates no code.
static_assert(std::is_empty_v<NullTraceSink>);
static_assert(!NullTraceSink::enabled(TraceCategory::Kernel));
static_assert(nullSinkFoldsAway());

TEST(NullSink, CompilesAwayAtConstexprTime)
{
    EXPECT_TRUE(nullSinkFoldsAway());
}

/**
 * A probe kernel: a serial xorshift chain, optionally instrumented
 * with a span + instant per step. Constant-evaluating both variants
 * and asserting bit-identical results proves the sink's hooks have no
 * observable side effects on the surrounding computation. Any runtime
 * cost codegen adds on top shows in perfbench's untraced points/s.
 */
template <bool WithSink>
constexpr std::uint64_t
probeChain(std::uint64_t steps)
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint64_t i = 0; i < steps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if constexpr (WithSink) {
            if (NullTraceSink::enabled(TraceCategory::Kernel)) {
                NullTraceSink::span(TraceCategory::Kernel,
                                    TraceName::TileCompute, 0, i,
                                    i + 1, x);
            }
            NullTraceSink::instant(TraceCategory::Kernel,
                                   TraceName::KernelLaunch, 0, i, x);
        }
    }
    return x;
}

// Bit-identical results at compile time: span/instant emission over
// the null sink cannot perturb the instrumented computation.
static_assert(probeChain<true>(257) == probeChain<false>(257));
static_assert(probeChain<true>(1) == probeChain<false>(1));

TEST(NullSink, InstrumentedProbeMatchesPlainProbe)
{
    // Same property at runtime, over a longer chain than the
    // constant evaluator comfortably unrolls.
    EXPECT_EQ(probeChain<true>(100000), probeChain<false>(100000));
}

// --- Exporter units ----------------------------------------------------

Tracer
handBuiltTrace()
{
    Tracer t;
    std::uint32_t h2d = t.lane("pcie.h2d");
    std::uint32_t gpu = t.lane("gpu.kernel");
    std::uint32_t fault = t.lane("uvm.fault");
    // Two link windows, the second queued 100 ps (arg2).
    t.span(TraceCategory::Pcie, TraceName::PinnedCopy, h2d, 0, 1000,
           4096, 0);
    t.span(TraceCategory::Pcie, TraceName::DemandMigration, h2d, 1000,
           2000, 2048, 100);
    // Kernel phase overlapping the second link window halfway.
    t.span(TraceCategory::Phase, TraceName::PhaseKernel, gpu, 1500,
           3500);
    // A 3-fault batch and its raises.
    t.instant(TraceCategory::Fault, TraceName::FaultRaise, fault, 900);
    t.instant(TraceCategory::Fault, TraceName::FaultRaise, fault, 950);
    t.instant(TraceCategory::Fault, TraceName::FaultRaise, fault, 980);
    t.span(TraceCategory::Fault, TraceName::FaultBatch, fault, 900,
           1400, 3);
    // Two prefetched chunks: one hit, one evicted untouched.
    t.instant(TraceCategory::Prefetch, TraceName::PrefetchIssue, h2d,
              400, 1);
    t.instant(TraceCategory::Prefetch, TraceName::PrefetchIssue, h2d,
              500, 1);
    t.instant(TraceCategory::Prefetch, TraceName::PrefetchHit, h2d,
              1200);
    t.instant(TraceCategory::Prefetch, TraceName::PrefetchWaste, h2d,
              3000);
    return t;
}

TEST(ChromeExport, EmitsCompleteInstantAndMetadataEvents)
{
    Tracer t = handBuiltTrace();
    std::ostringstream out;
    writeChromeTrace(out, {ChromeTraceJob{"unit", &t}});
    std::string json = out.str();

    EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    // One process_name metadata row per lane, named job:lane.
    EXPECT_NE(json.find("{\"name\": \"process_name\", \"ph\": \"M\", "
                        "\"pid\": 1, \"tid\": 0, \"args\": {\"name\": "
                        "\"unit:pcie.h2d\"}}"),
              std::string::npos);
    EXPECT_NE(json.find("\"unit:uvm.fault\""), std::string::npos);
    // Spans are complete events with fixed-point microsecond ts/dur.
    EXPECT_NE(json.find("{\"name\": \"pinned_copy\", \"cat\": "
                        "\"pcie\", \"ph\": \"X\", \"ts\": 0.000000, "
                        "\"dur\": 0.001000, \"pid\": 1, \"tid\": 0, "
                        "\"args\": {\"arg\": 4096}}"),
              std::string::npos);
    // Queue wait rides along as arg2 when non-zero.
    EXPECT_NE(json.find("\"arg2\": 100"), std::string::npos);
    // Instants carry thread scope.
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
}

TEST(ChromeExport, MergedJobsGetDisjointPidRanges)
{
    Tracer a = handBuiltTrace();
    Tracer b = handBuiltTrace();
    std::ostringstream out;
    writeChromeTrace(out, {ChromeTraceJob{"first", &a},
                           ChromeTraceJob{"second", &b}});
    std::string json = out.str();
    // First job claims pids 1..3 (three lanes); second starts at 4.
    EXPECT_NE(json.find("\"pid\": 1, \"tid\": 0, \"args\": {\"name\": "
                        "\"first:pcie.h2d\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"pid\": 4, \"tid\": 0, \"args\": {\"name\": "
                        "\"second:pcie.h2d\"}"),
              std::string::npos);
    EXPECT_EQ(json.find("\"pid\": 7"), std::string::npos);
}

TEST(ChromeExport, EscapesLabels)
{
    Tracer t;
    std::uint32_t lane = t.lane("x");
    t.span(TraceCategory::Kernel, TraceName::KernelLaunch, lane, 0, 10,
           0, 0, "say \"hi\"\n");
    std::ostringstream out;
    writeChromeTrace(out, {ChromeTraceJob{"esc", &t}});
    EXPECT_NE(out.str().find("\"label\": \"say \\\"hi\\\"\\n\""),
              std::string::npos);
}

TEST(TraceMetrics, FoldsHandBuiltTrace)
{
    Tracer t = handBuiltTrace();
    TraceMetrics m = computeTraceMetrics(t);

    EXPECT_EQ(m.wallEndPs, 3500u);
    // pcie.h2d busy = [0,1000) u [1000,2000) = 2000 ps.
    EXPECT_EQ(m.pcieBusyPs, 2000u);
    EXPECT_EQ(m.pcieQueueWaitPs, 100u);

    EXPECT_EQ(m.faultsRaised, 3u);
    EXPECT_EQ(m.faultBatches, 1u);
    EXPECT_EQ(m.faultBatchHist[1], 1u); // 3 faults -> bucket "2-3"

    EXPECT_EQ(m.prefetchIssued, 2u);
    EXPECT_EQ(m.prefetchHits, 1u);
    EXPECT_EQ(m.prefetchWasted, 1u);
    EXPECT_DOUBLE_EQ(m.prefetchAccuracy, 0.5);

    // Kernel phase [1500,3500) overlaps link [1000,2000) by 500 ps.
    EXPECT_EQ(m.kernelBusyPs, 2000u);
    EXPECT_EQ(m.overlapPs, 500u);
    EXPECT_DOUBLE_EQ(m.overlapFraction, 0.25);

    ASSERT_EQ(m.lanes.size(), 3u);
    EXPECT_EQ(m.lanes[0].name, "pcie.h2d");
    EXPECT_EQ(m.lanes[0].busyPs, 2000u);
    EXPECT_EQ(m.lanes[0].spans, 2u);
    EXPECT_DOUBLE_EQ(m.lanes[0].utilization, 2000.0 / 3500.0);
}

TEST(TraceMetrics, BucketLabelsAndCsvShape)
{
    EXPECT_EQ(faultBatchBucketLabel(0), "1");
    EXPECT_EQ(faultBatchBucketLabel(1), "2-3");
    EXPECT_EQ(faultBatchBucketLabel(faultBatchBuckets - 1), ">=128");

    Tracer t = handBuiltTrace();
    std::ostringstream out;
    writeTraceMetricsCsv(out, computeTraceMetrics(t));
    std::string csv = out.str();
    EXPECT_EQ(csv.rfind("metric,key,value\n", 0), 0u);
    EXPECT_NE(csv.find("pcie_queue_wait_ps,,100"), std::string::npos);
    EXPECT_NE(csv.find("prefetch_accuracy,,0.500000"),
              std::string::npos);
    EXPECT_NE(csv.find("fault_batch_hist,2-3,1"), std::string::npos);
}

// --- Golden exports ----------------------------------------------------

ExperimentResult
tracedSaxpy(TransferMode mode)
{
    registerAllWorkloads();
    Experiment e;
    ExperimentOptions opts;
    opts.size = SizeClass::Tiny;
    opts.runs = 1;
    opts.baseSeed = 42;
    opts.trace = true;
    return e.run("saxpy", mode, opts);
}

TEST(TraceGolden, SaxpyTinyStandardChromeJson)
{
    ExperimentResult res = tracedSaxpy(TransferMode::Standard);
    std::ostringstream out;
    writeChromeTrace(out, {ChromeTraceJob{"saxpy/standard", &res.trace}});
    compareOrUpdate("trace_saxpy_tiny_standard.json", out.str());
}

TEST(TraceGolden, SaxpyTinyUvmChromeJson)
{
    ExperimentResult res = tracedSaxpy(TransferMode::Uvm);
    std::ostringstream out;
    writeChromeTrace(out, {ChromeTraceJob{"saxpy/uvm", &res.trace}});
    compareOrUpdate("trace_saxpy_tiny_uvm.json", out.str());
}

TEST(TraceGolden, SaxpyTinyUvmMetricsCsv)
{
    ExperimentResult res = tracedSaxpy(TransferMode::Uvm);
    std::ostringstream out;
    writeTraceMetricsCsv(out, computeTraceMetrics(res.trace));
    compareOrUpdate("trace_metrics_saxpy_tiny_uvm.csv", out.str());
}

} // namespace
} // namespace uvmasync

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden")
            uvmasync::gUpdateGolden = true;
    }
    return RUN_ALL_TESTS();
}
