/**
 * @file
 * Cross-module property tests: conservation laws, monotonicity and
 * ordering invariants that must hold regardless of calibration.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "core/report.hh"
#include "mem/device_memory.hh"
#include "mem/page_table.hh"
#include "runtime/device.hh"
#include "serve/daemon.hh"
#include "store/fingerprint.hh"
#include "store/result_store.hh"
#include "trace/metrics.hh"
#include "trace_check.hh"
#include "workloads/registry.hh"
#include "xfer/migration_engine.hh"
#include "grid.hh"
#include "wait_terminal.hh"
#include "stat_of.hh"

namespace uvmasync
{
namespace
{

// --- Migration engine conservation -----------------------------------

TEST(Conservation, MigratedBytesMatchLinkPayload)
{
    PageTable table("pt");
    DeviceMemory devMem("hbm", gib(4), Bandwidth::fromGBps(1400.0));
    PcieLink link("pcie", PcieConfig{});
    UvmConfig cfg;
    cfg.chunkBytes = kib(256);
    MigrationEngine engine("uvm", cfg, table, devMem, link);

    std::size_t id = table.addRange("buf", mib(16) + 12345,
                                    cfg.chunkBytes);
    engine.beginJob();

    Tick t = 0;
    for (std::uint64_t c = 0; c < table.range(id).chunkCount();
         c += 2)
        t = engine.requestChunk(id, c, t);

    // The page table's migration accounting and the link's payload
    // accounting must agree byte for byte.
    EXPECT_EQ(statOf(table, "bytes_to_device"),
              link.bytesMoved(Direction::HostToDevice));
    // Resident bytes equal what was migrated (no eviction here).
    EXPECT_EQ(statOf(devMem, "resident_bytes"),
              statOf(table, "bytes_to_device"));
}

TEST(Conservation, WritebackNeverExceedsResident)
{
    PageTable table("pt");
    DeviceMemory devMem("hbm", gib(4), Bandwidth::fromGBps(1400.0));
    PcieLink link("pcie", PcieConfig{});
    MigrationEngine engine("uvm", UvmConfig{}, table, devMem, link);

    std::size_t id = table.addRange("buf", mib(64),
                                    UvmConfig{}.chunkBytes);
    engine.beginJob();
    engine.prefetchRange(id, 0);
    engine.markRangeDirty(id);
    engine.writebackDirty(id, seconds(1));
    EXPECT_LE(link.bytesMoved(Direction::DeviceToHost), mib(64));
    EXPECT_EQ(link.bytesMoved(Direction::DeviceToHost),
              statOf(table, "bytes_to_host"));
}

TEST(Conservation, OversubscribedResidencyNeverExceedsCapacity)
{
    PageTable table("pt");
    DeviceMemory devMem("hbm", mib(1), Bandwidth::fromGBps(1400.0));
    PcieLink link("pcie", PcieConfig{});
    UvmConfig cfg;
    cfg.chunkBytes = kib(64);
    MigrationEngine engine("uvm", cfg, table, devMem, link);

    std::size_t id = table.addRange("big", mib(4), cfg.chunkBytes);
    engine.beginJob();

    Tick t = 0;
    for (std::uint64_t c = 0; c < table.range(id).chunkCount(); ++c) {
        t = engine.requestChunk(id, c, t);
        ASSERT_LE(statOf(devMem, "resident_bytes"), devMem.capacity());
    }
}

// --- Executor monotonicity --------------------------------------------

TEST(Monotonicity, KernelTimeGrowsWithWork)
{
    registerAllWorkloads();
    Experiment e;
    ExperimentOptions opts;
    opts.runs = 1;
    double prev = 0.0;
    for (SizeClass s : {SizeClass::Tiny, SizeClass::Small,
                        SizeClass::Medium, SizeClass::Large}) {
        opts.size = s;
        double kernel =
            e.run("saxpy", TransferMode::Standard, opts)
                .clean.kernelPs;
        EXPECT_GE(kernel, prev) << sizeClassName(s);
        prev = kernel;
    }
}

TEST(Monotonicity, OverallGrowsWithSizeForEveryMode)
{
    registerAllWorkloads();
    Experiment e;
    ExperimentOptions opts;
    opts.runs = 1;
    for (TransferMode mode : allTransferModes) {
        double prev = 0.0;
        for (SizeClass s :
             {SizeClass::Small, SizeClass::Medium, SizeClass::Large,
              SizeClass::Super}) {
            opts.size = s;
            double overall =
                e.run("vector_seq", mode, opts).clean.overallPs();
            EXPECT_GT(overall, prev)
                << transferModeName(mode) << "/" << sizeClassName(s);
            prev = overall;
        }
    }
}

TEST(Monotonicity, SlowerLinkNeverHelpsTransfers)
{
    registerAllWorkloads();
    double prev = 0.0;
    for (double gbps : {200.0, 52.0, 26.0, 13.0}) {
        SystemConfig cfg = SystemConfig::a100Epyc();
        cfg.pcie.rawBandwidth = Bandwidth::fromGBps(gbps);
        Device device(cfg);
        Job job = WorkloadRegistry::instance()
                      .get("saxpy")
                      .makeJob(SizeClass::Medium);
        double transfer =
            device.run(job, TransferMode::Standard)
                .breakdown.transferPs;
        EXPECT_GT(transfer, prev) << gbps;
        prev = transfer;
    }
}

// --- Fault handler ordering -------------------------------------------

TEST(Ordering, FaultCompletionIsMonotoneInArrival)
{
    FaultHandler handler("fh", FaultHandlerConfig{});
    Tick prevDone = 0;
    Tick now = 0;
    std::uint64_t state = 99;
    for (int i = 0; i < 500; ++i) {
        state = state * 6364136223846793005ull + 1;
        now += state % microseconds(5);
        Tick done = handler.service(now);
        EXPECT_GE(done, now);
        EXPECT_GE(done, prevDone);
        prevDone = done;
    }
}

// --- Experiment-level orderings ----------------------------------------

TEST(Ordering, PrefetchAlwaysBeatsPlainUvmTransferOnFreshData)
{
    // Bulk prefetch moves the same bytes at higher efficiency than
    // demand migration, for every single-kernel workload.
    registerAllWorkloads();
    Experiment e;
    ExperimentOptions opts;
    opts.size = SizeClass::Medium;
    opts.runs = 1;
    for (const char *name : {"vector_seq", "saxpy", "gemv", "knn"}) {
        double uvm =
            e.run(name, TransferMode::Uvm, opts).clean.transferPs;
        double prefetch = e.run(name, TransferMode::UvmPrefetch, opts)
                              .clean.transferPs;
        EXPECT_LT(prefetch, uvm) << name;
    }
}

TEST(Ordering, AllocationIsModeInsensitiveToFirstOrder)
{
    // The paper treats allocation as roughly constant across the five
    // setups; managed and device allocation must stay within 25%.
    registerAllWorkloads();
    Experiment e;
    ExperimentOptions opts;
    opts.size = SizeClass::Super;
    opts.runs = 1;
    ModeSet set = e.runAllModes("vector_seq", opts);
    double base = findMode(set, TransferMode::Standard).clean.allocPs;
    for (const ExperimentResult &res : set) {
        EXPECT_NEAR(res.clean.allocPs / base, 1.0, 0.25)
            << transferModeName(res.mode);
    }
}

TEST(Ordering, FasterPatternsLoadFaster)
{
    // vector_rand's gather can never beat vector_seq's stream.
    registerAllWorkloads();
    Experiment e;
    ExperimentOptions opts;
    opts.size = SizeClass::Large;
    opts.runs = 1;
    double seq = e.run("vector_seq", TransferMode::Standard, opts)
                     .clean.kernelPs;
    double rnd = e.run("vector_rand", TransferMode::Standard, opts)
                     .clean.kernelPs;
    EXPECT_GT(rnd, seq);
}

// --- Trace invariants ---------------------------------------------------

/**
 * Every workload in the registry, under every transfer mode, must
 * produce a structurally valid trace: spans in per-lane time order
 * and properly nested, nothing past the wall, per-lane busy bounded
 * by the wall, the kernel-detail spans covering at least the kernel
 * busy time, and fault lifecycle events exactly in (and only in) the
 * UVM modes.
 */
TEST(TraceInvariants, RegistryWideStructuralChecks)
{
    registerAllWorkloads();
    Experiment e;
    ExperimentOptions opts;
    opts.size = SizeClass::Tiny;
    opts.runs = 1;
    opts.trace = true;
    for (const std::string &name :
         WorkloadRegistry::instance().names()) {
        for (TransferMode mode : allTransferModes) {
            SCOPED_TRACE(name + "/" + transferModeName(mode));
            ExperimentResult res = e.run(name, mode, opts);
            const Tracer &trace = res.trace;
            ASSERT_FALSE(trace.empty());

            TraceCheckResult check = checkTrace(trace);
            EXPECT_TRUE(check.ok) << check.first();

            // No lane (PCIe directions included) can be busier than
            // the trace is long.
            TraceMetrics m = computeTraceMetrics(trace);
            for (const LaneMetrics &lane : m.lanes)
                EXPECT_LE(lane.busyPs, m.wallEndPs) << lane.name;

            Tick kernelSpanPs = 0;
            std::uint64_t raises = 0;
            std::uint64_t faultEvents = 0;
            for (const TraceEvent &ev : trace.events()) {
                if (ev.category == TraceCategory::Kernel &&
                    (ev.name == TraceName::KernelLaunch ||
                     ev.name == TraceName::TileCompute))
                    kernelSpanPs += ev.duration();
                if (ev.category == TraceCategory::Fault) {
                    ++faultEvents;
                    if (ev.name == TraceName::FaultRaise)
                        ++raises;
                }
            }
            // Launch + tile spans jointly tile each launch window, so
            // their total can never undercut the kernel component.
            EXPECT_GE(static_cast<double>(kernelSpanPs) + 1.0,
                      res.clean.kernelPs);
            if (usesUvm(mode)) {
                EXPECT_EQ(raises, res.counters.faults);
            } else {
                EXPECT_EQ(faultEvents, 0u);
            }
        }
    }
}

/** An untraced run must leave the result's trace empty. */
TEST(TraceInvariants, UntracedRunRecordsNothing)
{
    registerAllWorkloads();
    Experiment e;
    ExperimentOptions opts;
    opts.size = SizeClass::Tiny;
    opts.runs = 1;
    ExperimentResult res = e.run("saxpy", TransferMode::Uvm, opts);
    EXPECT_TRUE(res.trace.empty());
    EXPECT_EQ(res.trace.laneCount(), 0u);
}

// --- Noise model properties ---------------------------------------------

TEST(NoiseProperties, PerRunSamplesArePositive)
{
    registerAllWorkloads();
    Experiment e;
    ExperimentOptions opts;
    opts.size = SizeClass::Tiny;
    opts.runs = 50;
    for (TransferMode mode :
         {TransferMode::Standard, TransferMode::Uvm}) {
        ExperimentResult res = e.run("saxpy", mode, opts);
        for (const TimeBreakdown &b : res.runs) {
            EXPECT_GT(b.allocPs, 0.0);
            EXPECT_GT(b.transferPs, 0.0);
            EXPECT_GT(b.kernelPs, 0.0);
        }
    }
}

TEST(NoiseProperties, MeanTracksClean)
{
    registerAllWorkloads();
    Experiment e;
    ExperimentOptions opts;
    opts.size = SizeClass::Super;
    opts.runs = 30;
    ExperimentResult res =
        e.run("vector_seq", TransferMode::Standard, opts);
    // Mean of noisy runs within 5% of clean + expected overhead.
    double expected =
        res.clean.overallPs() +
        static_cast<double>(NoiseConfig{}.systemOverheadMean);
    EXPECT_NEAR(res.meanBreakdown().overallPs() / expected, 1.0,
                0.05);
}

// --- Result-store equivalence ------------------------------------------

/**
 * Serving a sweep from the persistent store is an identity: a warm
 * rerun hits on 100% of its points and every ExperimentResult field
 * that feeds reports/CSV is bit-identical to the cold simulation.
 */
TEST(StoreEquivalence, WarmSweepIsBitIdenticalToCold)
{
    registerAllWorkloads();
    ExperimentOptions base;
    base.size = SizeClass::Tiny;
    base.runs = 3;
    std::vector<TransferMode> modes(allTransferModes.begin(),
                                    allTransferModes.end());
    std::vector<ExperimentPoint> grid = expandGrid(
        {"saxpy", "gemv"}, modes, 1, base);

    std::string dir =
        ::testing::TempDir() + "uvmasync_store_props";
    std::uint64_t fp =
        modelSemanticsFingerprint(SystemConfig::a100Epyc());

    BatchResult cold, warm;
    {
        auto store = ResultStore::open(dir, fp);
        StorePointCache cache(*store, grid);
        RunPolicy policy;
        policy.cache = &cache;
        ParallelRunner runner(SystemConfig::a100Epyc(), 2);
        cold = runner.runPoints(grid, policy);
        ASSERT_TRUE(cold.allOk());
        EXPECT_EQ(cold.metrics.cacheHits, 0u);
    }
    {
        auto store = ResultStore::open(dir, fp);
        StorePointCache cache(*store, grid);
        RunPolicy policy;
        policy.cache = &cache;
        ParallelRunner runner(SystemConfig::a100Epyc(), 4);
        warm = runner.runPoints(grid, policy);
        ASSERT_TRUE(warm.allOk());
        // 100% hit rate: nothing simulated.
        EXPECT_EQ(warm.metrics.cacheHits, grid.size());
        EXPECT_EQ(store->stats().hits, store->stats().lookups);
    }

    ASSERT_EQ(warm.points.size(), cold.points.size());
    for (std::size_t i = 0; i < warm.points.size(); ++i) {
        const ExperimentResult &a = cold.points[i].result;
        const ExperimentResult &b = warm.points[i].result;
        EXPECT_EQ(b.workload, a.workload);
        EXPECT_EQ(b.mode, a.mode);
        EXPECT_EQ(b.size, a.size);
        EXPECT_EQ(std::memcmp(&b.clean, &a.clean, sizeof(a.clean)),
                  0);
        ASSERT_EQ(b.runs.size(), a.runs.size());
        for (std::size_t r = 0; r < a.runs.size(); ++r)
            EXPECT_EQ(std::memcmp(&b.runs[r], &a.runs[r],
                                  sizeof(a.runs[r])),
                      0);
        EXPECT_EQ(b.counters.faults, a.counters.faults);
        EXPECT_EQ(b.counters.bytesH2d, a.counters.bytesH2d);
        EXPECT_EQ(b.counters.bytesD2h, a.counters.bytesD2h);
        EXPECT_TRUE(std::memcmp(&b.counters.occupancy,
                                &a.counters.occupancy,
                                sizeof(double)) == 0);
    }

    // Scratch cleanup.
    for (std::size_t s = 0; s < ResultStore::shardCount; ++s) {
        char name[8];
        std::snprintf(name, sizeof(name), "s%02zx", s);
        std::remove((dir + "/shards/" + name).c_str());
    }
    std::remove((dir + "/meta.json").c_str());
    ::rmdir((dir + "/shards").c_str());
    ::rmdir(dir.c_str());
}

// --- Multi-tenant service equivalence --------------------------------

namespace
{

void
removeServeTree(const std::string &path)
{
    struct stat st;
    if (::lstat(path.c_str(), &st) != 0)
        return;
    if (!S_ISDIR(st.st_mode)) {
        ::unlink(path.c_str());
        return;
    }
    if (DIR *dir = ::opendir(path.c_str())) {
        while (struct dirent *entry = ::readdir(dir)) {
            std::string name = entry->d_name;
            if (name == "." || name == "..")
                continue;
            removeServeTree(path + "/" + name);
        }
        ::closedir(dir);
    }
    ::rmdir(path.c_str());
}

} // namespace

/**
 * Two tenants of the campaign daemon racing to submit the SAME batch
 * must be indistinguishable from two sequential CLI runs sharing a
 * store: both streams byte-identical, and whichever batch ran second
 * was served entirely from the first tenant's cached points — the
 * shared store turns one client's work into the other's cache hits.
 */
TEST(ServiceEquivalence, RacingIdenticalTenantsShareOneSimulation)
{
    const std::string state =
        ::testing::TempDir() + "uvmasync_props_serve_state";
    const std::string storeDir =
        ::testing::TempDir() + "uvmasync_props_serve_store";
    removeServeTree(state);
    removeServeTree(storeDir);

    const std::string payload = "batch.workload = saxpy\n"
                                "batch.size = tiny\n"
                                "batch.runs = 2\n";

    ServeOptions opt;
    opt.stateDir = state;
    opt.storeDir = storeDir;
    opt.jobs = 2;
    ServeDaemon daemon(opt);

    // Both tenants submit concurrently and block for their stream.
    std::string streams[2];
    std::string errors[2];
    BatchHandle handles[2] = {0, 0};
    std::thread tenants[2];
    for (int i = 0; i < 2; ++i) {
        tenants[i] = std::thread([&, i] {
            std::string error;
            BatchHandle handle =
                daemon.submit(1 + i, payload, error);
            if (handle == 0) {
                errors[i] = error;
                return;
            }
            handles[i] = handle;
            BatchState finalState = BatchState::Pending;
            if (!waitTerminal(daemon, handle, finalState) ||
                finalState != BatchState::Done) {
                errors[i] = "batch did not finish clean";
                return;
            }
            StreamChunk chunk;
            if (!daemon.stream(handle, 0, chunk, error))
                errors[i] = error;
            else
                streams[i] = chunk.lines;
        });
    }
    tenants[0].join();
    tenants[1].join();
    ASSERT_TRUE(errors[0].empty()) << errors[0];
    ASSERT_TRUE(errors[1].empty()) << errors[1];

    // Byte-identical results regardless of which tenant's batch ran
    // first.
    ASSERT_FALSE(streams[0].empty());
    EXPECT_EQ(streams[0], streams[1]);

    // The daemon scheduler serializes batches, so whichever batch
    // ran second hit the store for every point the first one stored.
    const std::size_t points = allTransferModes.size();
    ServeStats stats = daemon.stats();
    EXPECT_EQ(stats.storeHits, points);
    EXPECT_EQ(stats.storeStored, points);
    EXPECT_EQ(stats.pointsCached, points);
    EXPECT_EQ(stats.pointsMerged, 2 * points);

    std::string error;
    BatchStatus status[2];
    ASSERT_TRUE(daemon.status(handles[0], status[0], error))
        << error;
    ASSERT_TRUE(daemon.status(handles[1], status[1], error))
        << error;
    // Exactly one of the two was the cached one (submission racing
    // decides which), and it was cached in full.
    EXPECT_EQ(status[0].cached + status[1].cached, points);
    EXPECT_EQ(status[0].ok, points);
    EXPECT_EQ(status[1].ok, points);

    daemon.stop();
    removeServeTree(state);
    removeServeTree(storeDir);
}

} // namespace
} // namespace uvmasync
