/**
 * @file
 * Golden-figure regression harness.
 *
 * Runs the Figure 7 (microbenchmarks), Figure 8 (applications) and
 * Figure 14 (inter-job pipeline) pipelines, a handful of
 * oversubscribed Mega UVM points and the whole registry under UVM
 * at Tiny, Small and Medium, at a fixed seed through
 * the parallel engine and compares the rendered CSV byte-for-byte
 * against the checked-in goldens in tests/golden/. Any change to the
 * simulator's timing model shows up as a diff here, so a perf PR
 * cannot silently change the paper numbers.
 *
 * Updating the goldens after an *intentional* model change:
 *
 *     ./build/tests/test_golden_figures --update-golden
 *     git diff tests/golden/   # review every changed number!
 *
 * then commit the regenerated CSVs together with the model change.
 * The golden directory is baked in at compile time via the
 * UVMASYNC_GOLDEN_DIR definition (tests/CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/batch_pipeline.hh"
#include "core/parallel_runner.hh"
#include "store/fingerprint.hh"
#include "store/result_store.hh"
#include "workloads/registry.hh"
#include "grid.hh"

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
        << "with: test_golden_figures --update-golden";
    EXPECT_EQ(expected, actual)
        << "simulated figure numbers changed. If intentional, "
        << "regenerate with --update-golden and review the diff.";
}

/** The harness' fixed-seed options (seed pinned, modest run count). */
ExperimentOptions
goldenOpts(SizeClass size)
{
    ExperimentOptions opts;
    opts.size = size;
    opts.runs = 5;
    opts.baseSeed = 42;
    return opts;
}

/**
 * Render @p results as CSV, micro-picosecond precision: workload,
 * mode, clean and mean alloc/transfer/kernel components, and the
 * fault counter.
 */
std::string
resultsCsv(const std::vector<ExperimentResult> &results)
{
    std::string csv = "workload,mode,clean_alloc_ps,clean_transfer_ps,"
                      "clean_kernel_ps,mean_alloc_ps,mean_transfer_ps,"
                      "mean_kernel_ps,faults\n";
    char buf[512];
    for (const ExperimentResult &res : results) {
        TimeBreakdown mean = res.meanBreakdown();
        std::snprintf(buf, sizeof(buf),
                      "%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%llu\n",
                      res.workload.c_str(),
                      transferModeName(res.mode), res.clean.allocPs,
                      res.clean.transferPs, res.clean.kernelPs,
                      mean.allocPs, mean.transferPs, mean.kernelPs,
                      static_cast<unsigned long long>(
                          res.counters.faults));
        csv += buf;
    }
    return csv;
}

/** Run @p points through the engine and render them as CSV. */
std::string
pointsCsv(const std::vector<ExperimentPoint> &points,
          std::vector<ExperimentResult> *keep = nullptr)
{
    ParallelRunner runner(SystemConfig::a100Epyc());
    std::vector<ExperimentResult> results = runner.runPoints(points).results();
    std::string csv = resultsCsv(results);
    if (keep)
        *keep = std::move(results);
    return csv;
}

/** The (workloads x five modes) grid at @p size, one point a cell. */
std::vector<ExperimentPoint>
goldenGrid(const std::vector<std::string> &workloads, SizeClass size)
{
    std::vector<TransferMode> modes(allTransferModes.begin(),
                                    allTransferModes.end());
    std::vector<ExperimentPoint> points = expandGrid(
        workloads, modes, 1, goldenOpts(size));
    // expandGrid derives per-trial seeds; the golden pipelines pin
    // the cell seed itself so the CSV matches a plain fixed-seed run.
    for (ExperimentPoint &point : points)
        point.opts.baseSeed = 42;
    return points;
}

/** Run a (workloads x five modes) grid and render it as CSV. */
std::string
gridCsv(const std::vector<std::string> &workloads, SizeClass size,
        std::vector<ExperimentResult> *keep = nullptr)
{
    return pointsCsv(goldenGrid(workloads, size), keep);
}

TEST(GoldenFigures, Fig7MicroLarge)
{
    registerAllWorkloads();
    compareOrUpdate(
        "fig7_micro_large.csv",
        gridCsv(WorkloadRegistry::instance().names(
                    WorkloadSuite::Micro),
                SizeClass::Large));
}

TEST(GoldenFigures, Fig8AppsSuper)
{
    registerAllWorkloads();
    compareOrUpdate(
        "fig8_apps_super.csv",
        gridCsv(WorkloadRegistry::instance().names(WorkloadSuite::App),
                SizeClass::Super));
}

TEST(GoldenFigures, Fig14InterJobPipeline)
{
    registerAllWorkloads();
    std::vector<ExperimentResult> results;
    gridCsv(WorkloadRegistry::instance().names(WorkloadSuite::App),
            SizeClass::Super, &results);

    // The Section 6 batch: every app's uvm_prefetch_async mean
    // breakdown, scheduled serial vs pipelined.
    std::vector<TimeBreakdown> batch;
    for (const ExperimentResult &res : results) {
        if (res.mode == TransferMode::UvmPrefetchAsync)
            batch.push_back(res.meanBreakdown());
    }
    ASSERT_FALSE(batch.empty());
    BatchScheduleResult sched = scheduleBatch(batch);

    char buf[256];
    std::string csv = "metric,value\n";
    std::snprintf(buf, sizeof(buf), "serial_ps,%.6f\n",
                  sched.serialPs);
    csv += buf;
    std::snprintf(buf, sizeof(buf), "pipelined_ps,%.6f\n",
                  sched.pipelinedPs);
    csv += buf;
    std::snprintf(buf, sizeof(buf), "improvement,%.9f\n",
                  sched.improvement());
    csv += buf;
    compareOrUpdate("fig14_interjob.csv", csv);
}

/**
 * The evicting regime: Mega points whose touched working set
 * oversubscribes device memory, so demand faults, LRU eviction and
 * migration order all reach the CSV. One run per point keeps the
 * suite quick.
 */
TEST(GoldenFigures, OversubMega)
{
    registerAllWorkloads();
    const std::pair<const char *, TransferMode> cells[] = {
        {"3DCONV", TransferMode::Uvm},
        {"3DCONV", TransferMode::UvmPrefetch},
        {"3DCONV", TransferMode::UvmPrefetchAsync},
        {"gemm", TransferMode::Uvm},
        {"kmeans", TransferMode::Uvm},
    };
    std::vector<ExperimentPoint> points;
    for (const auto &[workload, mode] : cells) {
        ExperimentPoint point;
        point.workload = workload;
        point.mode = mode;
        point.opts = goldenOpts(SizeClass::Mega);
        point.opts.runs = 1;
        points.push_back(std::move(point));
    }
    compareOrUpdate("oversub_mega.csv", pointsCsv(points));
}

/**
 * The demand-fault regime at the sizes where grids and touched chunk
 * counts are of one order: every registry workload at Tiny, Small
 * and Medium under the three UVM modes, one run each. Here blocks
 * mix resident hits, in-flight chunks, speculative prefetches and
 * faults, so any drift in the executor's event order reaches the
 * CSV.
 */
TEST(GoldenFigures, UvmRegistry)
{
    registerAllWorkloads();
    const TransferMode modes[] = {TransferMode::Uvm,
                                  TransferMode::UvmPrefetch,
                                  TransferMode::UvmPrefetchAsync};
    std::vector<ExperimentPoint> points;
    for (SizeClass size :
         {SizeClass::Tiny, SizeClass::Small, SizeClass::Medium}) {
        for (const std::string &workload :
             WorkloadRegistry::instance().names()) {
            for (TransferMode mode : modes) {
                ExperimentPoint point;
                point.workload = workload;
                point.mode = mode;
                point.opts = goldenOpts(size);
                point.opts.runs = 1;
                points.push_back(std::move(point));
            }
        }
    }
    ASSERT_EQ(points.size(), 189u);
    compareOrUpdate("uvm_registry.csv", pointsCsv(points));
}

/**
 * Golden regeneration *through the result store*: the Figure 7 CSV
 * produced by a cold store-populating run and by a warm 100%-hit
 * rerun must both equal the committed golden byte-for-byte. This is
 * the end-to-end guarantee that incremental (store-served) figure
 * regeneration can never drift from a from-scratch simulation.
 */
TEST(GoldenFigures, Fig7RegeneratedThroughStoreMatchesGolden)
{
    registerAllWorkloads();
    std::vector<ExperimentPoint> points = goldenGrid(
        WorkloadRegistry::instance().names(WorkloadSuite::Micro),
        SizeClass::Large);

    std::string dir =
        ::testing::TempDir() + "uvmasync_store_golden";
    std::uint64_t fp =
        modelSemanticsFingerprint(SystemConfig::a100Epyc());

    std::string golden = readFile(goldenPath("fig7_micro_large.csv"));
    ASSERT_FALSE(golden.empty());

    for (int round = 0; round < 2; ++round) {
        auto store = ResultStore::open(dir, fp);
        StorePointCache cache(*store, points);
        RunPolicy policy;
        policy.cache = &cache;
        ParallelRunner runner(SystemConfig::a100Epyc());
        BatchResult batch = runner.runPoints(points, policy);
        ASSERT_TRUE(batch.allOk());
        EXPECT_EQ(batch.metrics.cacheHits,
                  round == 0 ? 0u : points.size());
        EXPECT_EQ(resultsCsv(batch.results()), golden)
            << (round == 0 ? "cold" : "warm")
            << " store-backed regeneration diverged from the "
            << "committed golden";
    }

    for (std::size_t s = 0; s < ResultStore::shardCount; ++s) {
        char name[8];
        std::snprintf(name, sizeof(name), "s%02zx", s);
        std::remove((dir + "/shards/" + name).c_str());
    }
    std::remove((dir + "/meta.json").c_str());
    ::rmdir((dir + "/shards").c_str());
    ::rmdir(dir.c_str());
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
