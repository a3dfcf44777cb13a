/**
 * @file
 * The paper's three tables and eleven figures (Tables 1-3, Figures
 * 4-14), each printed from the simulator with the paper's numbers
 * beside ours where the paper states one.
 */

#include <iostream>

#include "core/batch_pipeline.hh"
#include "core/paper_targets.hh"
#include "figures.hh"

namespace uvmasync
{
namespace bench
{

namespace
{

const std::vector<std::string> &
microNames()
{
    static const std::vector<std::string> names =
        WorkloadRegistry::instance().names(WorkloadSuite::Micro);
    return names;
}

const std::vector<std::string> &
appNames()
{
    static const std::vector<std::string> names =
        WorkloadRegistry::instance().names(WorkloadSuite::App);
    return names;
}

ExperimentOptions
optsAt(SizeClass size, std::uint32_t runs)
{
    ExperimentOptions opts;
    opts.size = size;
    opts.runs = runs;
    return opts;
}

/** Figures 9 and 10's workloads. */
const std::vector<std::string> kMixWorkloads = {"gemm", "lud",
                                                "yolov3"};

/** Kernel-time change of @p mode vs standard for one workload. */
double
kernelChange(const ModeSet &set, TransferMode mode)
{
    double base =
        findMode(set, TransferMode::Standard).clean.kernelPs;
    double other = findMode(set, mode).clean.kernelPs;
    return relativeChange(other, base);
}

/** Async control-instruction increase over standard (Figure 9). */
double
ctrlIncrease(const ModeSet &set)
{
    double base =
        findMode(set, TransferMode::Standard).counters.instrs.control;
    double async = findMode(set, TransferMode::UvmPrefetchAsync)
                       .counters.instrs.control;
    return async / base - 1.0;
}

/** A sweep's overall times normalized to its first standard point. */
void
addNormalizedRows(TextTable &table,
                  const std::vector<SweepPoint> &points,
                  std::string (*label)(std::uint64_t))
{
    double ref = 0.0;
    for (const SweepPoint &point : points) {
        double base = findMode(point.modes, TransferMode::Standard)
                          .meanBreakdown()
                          .overallPs();
        if (ref == 0.0)
            ref = base;
        std::vector<std::string> row = {label(point.value)};
        for (TransferMode m : allTransferModes) {
            double v =
                findMode(point.modes, m).meanBreakdown().overallPs();
            row.push_back(fmtDouble(v / ref, 3));
        }
        table.addRow(row);
    }
}

std::string
countLabel(std::uint64_t value)
{
    return std::to_string(value);
}

std::string
bytesLabel(std::uint64_t value)
{
    return fmtBytes(static_cast<double>(value));
}

} // namespace

/**
 * Table 1: hardware configuration of the simulated testbed, printed
 * from the live SystemConfig so the table always reflects what the
 * other figures actually ran on.
 */
void
table1Config(ResultCache &)
{
    SystemConfig cfg = SystemConfig::a100Epyc();

    TextTable table({"component", "parameter", "value"});
    table.addRow({"CPU DRAM", "modules",
                  std::to_string(cfg.host.dimmCount) + " x " +
                      fmtBytes(static_cast<double>(
                          cfg.host.dimmCapacity))});
    table.addRow({"CPU DRAM", "host read bandwidth",
                  fmtDouble(cfg.host.readBandwidth.gbps(), 0) +
                      " GB/s"});
    table.addRow({"GPU", "SMs", std::to_string(cfg.gpu.smCount)});
    table.addRow({"GPU", "clock",
                  fmtDouble(cfg.gpu.clock.mhz(), 0) + " MHz"});
    table.addRow({"GPU", "HBM2 capacity",
                  fmtBytes(static_cast<double>(
                      cfg.deviceMemoryBytes))});
    table.addRow({"GPU", "HBM2 bandwidth",
                  fmtDouble(cfg.gpu.hbmBandwidth.gbps(), 0) +
                      " GB/s"});
    table.addRow({"GPU", "unified L1/shared per SM",
                  fmtBytes(static_cast<double>(
                      cfg.gpu.unifiedL1Bytes))});
    table.addRow({"GPU", "max shared carveout",
                  fmtBytes(static_cast<double>(
                      cfg.gpu.maxSharedBytes))});
    table.addRow({"Interconnect", "PCIe raw bandwidth",
                  fmtDouble(cfg.pcie.rawBandwidth.gbps(), 0) +
                      " GB/s per direction"});
    table.addRow({"UVM", "migration chunk",
                  fmtBytes(static_cast<double>(cfg.uvm.chunkBytes))});
    printTable(std::cout,
               "Table 1: simulated hardware configuration "
               "(A100 + EPYC testbed)",
               table);
}

/**
 * Table 2: the benchmark programs — printed from the registry, with
 * Super-size job shape facts (footprint, kernels, launches) so the
 * table documents what the suite actually executes.
 */
void
table2Programs(ResultCache &)
{
    WorkloadRegistry &reg = WorkloadRegistry::instance();
    TextTable table({"suite", "source", "program", "input",
                     "footprint@super", "kernels", "launches"});
    table.setAlign(1, TextTable::Align::Left);
    table.setAlign(2, TextTable::Align::Left);
    table.setAlign(3, TextTable::Align::Left);
    for (WorkloadSuite suite :
         {WorkloadSuite::Micro, WorkloadSuite::App}) {
        for (const std::string &name : reg.names(suite)) {
            const Workload &w = reg.get(name);
            Job job = w.makeJob(SizeClass::Super);
            table.addRow(
                {suite == WorkloadSuite::Micro ? "Micro" : "Apps",
                 w.info().source, name, w.info().inputShape,
                 fmtBytes(static_cast<double>(job.footprint())),
                 std::to_string(job.kernels.size()),
                 std::to_string(job.launchCount())});
        }
        table.addSeparator();
    }
    printTable(std::cout, "Table 2: benchmark programs", table);
}

/**
 * Table 3: the Tiny..Mega parameter configurations (memory targets
 * and 1D/2D/3D reference dimensions).
 */
void
table3Sizes(ResultCache &)
{
    TextTable table({"class", "mem", "1D grid", "2D grid", "3D grid"});
    for (SizeClass s : allSizeClasses) {
        table.addRow({sizeClassName(s),
                      fmtBytes(static_cast<double>(sizeClassMem(s))),
                      fmtCount(static_cast<double>(grid1d(s))),
                      std::to_string(grid2d(s)) + "^2",
                      std::to_string(grid3d(s)) + "^3"});
    }
    printTable(std::cout, "Table 3: parameter configurations", table);
}

/**
 * Figure 4: overall-execution-time distributions of the seven
 * microbenchmarks across the six input sizes, 30 runs per
 * configuration. Prints per-size mean / p5 / p95 across the five
 * setups, showing the stability window (Large/Super stable, Mega
 * noisy again).
 */
void
fig4Distribution(ResultCache &cache)
{
    std::vector<ExperimentOptions> grid;
    for (SizeClass size : allSizeClasses)
        grid.push_back(optsAt(size, 30));
    cache.prefetchGrid(microNames(), grid);

    for (SizeClass size : allSizeClasses) {
        TextTable table({"workload", "mode", "mean", "p5", "p95",
                         "std/mean"});
        for (const std::string &name : microNames()) {
            for (const ExperimentResult &res :
                 cache.modes(name, optsAt(size, 30))) {
                SampleSet samples = res.overallSamples();
                table.addRow({name, transferModeName(res.mode),
                              fmtTime(samples.mean()),
                              fmtTime(samples.percentile(5.0)),
                              fmtTime(samples.percentile(95.0)),
                              fmtDouble(samples.cv(), 4)});
            }
            table.addSeparator();
        }
        printTable(std::cout,
                   std::string("Figure 4: execution-time "
                               "distribution, ") +
                       sizeClassName(size) + " input (30 runs)",
                   table);
    }
}

/**
 * Figure 5: standard deviation over mean of the 30-run distributions
 * for each input size (averaged over the five setups per workload,
 * as in the paper), plus the geometric mean across the seven
 * microbenchmarks. The expected shape: noise falls from Tiny to
 * Large/Super, then regresses at Mega (Takeaway 1).
 */
void
fig5Stability(ResultCache &cache)
{
    std::vector<ExperimentOptions> grid;
    for (SizeClass size : allSizeClasses)
        grid.push_back(optsAt(size, 30));
    cache.prefetchGrid(microNames(), grid);

    std::vector<std::string> headers = {"workload"};
    for (SizeClass s : allSizeClasses)
        headers.push_back(sizeClassName(s));
    TextTable table(headers);

    std::vector<std::vector<double>> perSize(allSizeClasses.size());
    for (const std::string &name : microNames()) {
        std::vector<std::string> row = {name};
        for (std::size_t i = 0; i < allSizeClasses.size(); ++i) {
            ModeSet set = cache.modes(name, grid[i]);
            double cv = 0.0;
            for (const ExperimentResult &res : set)
                cv += res.overallSamples().cv();
            cv /= static_cast<double>(set.size());
            perSize[i].push_back(std::max(cv, 1e-9));
            row.push_back(fmtDouble(cv, 4));
        }
        table.addRow(row);
    }
    table.addSeparator();
    std::vector<std::string> geo = {"geo-mean"};
    std::vector<double> geoVals;
    for (const auto &sizeCvs : perSize) {
        double g = geomean(sizeCvs);
        geoVals.push_back(g);
        geo.push_back(fmtDouble(g, 4));
    }
    table.addRow(geo);
    printTable(std::cout,
               "Figure 5: std/mean of 30 runs per input size",
               table);

    // The Takeaway 1 shape check: tiny > large, mega > super.
    std::cout << "Takeaway 1 shape: tiny/large cv ratio = "
              << fmtDouble(geoVals[0] / geoVals[3], 2)
              << " (expect > 1), mega/super cv ratio = "
              << fmtDouble(geoVals[5] / geoVals[4], 2)
              << " (expect > 1)\n";
}

/**
 * Figure 6: per-run execution-time breakdown of vector_seq at the
 * Mega input size (30 runs, standard setup). Allocation and kernel
 * stay flat while memcpy varies — the DRAM-module straddle effect.
 */
void
fig6MegaBreakdown(ResultCache &cache)
{
    const ExperimentResult &res =
        cache.get({"vector_seq", TransferMode::Standard,
                   optsAt(SizeClass::Mega, 30)});
    TextTable table({"run", "gpu_kernel", "memcpy", "allocation",
                     "overall"});
    for (std::size_t i = 0; i < res.runs.size(); ++i) {
        const TimeBreakdown &b = res.runs[i];
        table.addRow({std::to_string(i), fmtTime(b.kernelPs),
                      fmtTime(b.transferPs), fmtTime(b.allocPs),
                      fmtTime(b.overallPs())});
    }
    printTable(std::cout,
               "Figure 6: per-run breakdown, vector_seq Mega "
               "(30 runs, standard)",
               table);

    // Component-wise variability: memcpy should dominate the noise.
    SampleSet alloc, memcpy_s, kernel;
    for (const TimeBreakdown &b : res.runs) {
        alloc.add(b.allocPs);
        memcpy_s.add(b.transferPs);
        kernel.add(b.kernelPs);
    }
    TextTable cv({"component", "std/mean"});
    cv.addRow({"gpu_kernel", fmtDouble(kernel.cv(), 4)});
    cv.addRow({"memcpy", fmtDouble(memcpy_s.cv(), 4)});
    cv.addRow({"allocation", fmtDouble(alloc.cv(), 4)});
    printTable(std::cout,
               "Figure 6 root cause: memcpy is the unstable "
               "component",
               cv);
}

/**
 * Figure 7: side-by-side comparison of the five data-transfer
 * configurations on the seven microbenchmarks at Large and Super
 * input sizes, with the execution time broken into gpu_kernel /
 * memcpy / allocation (normalized to standard). Also reproduces the
 * Section 4.1.1 headline numbers, printed paper-vs-measured.
 */
void
fig7Micro(ResultCache &cache)
{
    const ExperimentOptions largeOpts = optsAt(SizeClass::Large, 30);
    const ExperimentOptions superOpts = optsAt(SizeClass::Super, 30);
    cache.prefetchGrid(microNames(), {largeOpts, superOpts});
    std::vector<ModeSet> large, super;
    for (const std::string &name : microNames()) {
        large.push_back(cache.modes(name, largeOpts));
        super.push_back(cache.modes(name, superOpts));
    }

    printTable(std::cout, "Figure 7a: microbenchmarks, Large input "
                          "(normalized to standard)",
               breakdownTable(large));
    printTable(std::cout, "Figure 7b: microbenchmarks, Super input "
                          "(normalized to standard)",
               breakdownTable(super));

    const ModeSet &vec = large[0]; // vector_seq is registered first
    ModeSet conv2d;
    ModeSet gemmSuper;
    for (std::size_t i = 0; i < microNames().size(); ++i) {
        if (microNames()[i] == "2DCONV")
            conv2d = large[i];
        if (microNames()[i] == "gemm")
            gemmSuper = super[i];
    }

    std::vector<ComparisonRow> rows = {
        {"async overall gain, Large (geomean)",
         paper::microAsyncGainLarge,
         geomeanImprovement(large, TransferMode::Async)},
        {"async overall gain, Super (geomean)",
         paper::microAsyncGainSuper,
         geomeanImprovement(super, TransferMode::Async)},
        {"uvm overall gain, Large (geomean)",
         paper::microUvmGainLarge,
         geomeanImprovement(large, TransferMode::Uvm)},
        {"uvm overall gain, Super (geomean)",
         paper::microUvmGainSuper,
         geomeanImprovement(super, TransferMode::Uvm)},
        {"uvm_prefetch overall gain, Large (geomean)",
         paper::microUvmPrefetchGainLarge,
         geomeanImprovement(large, TransferMode::UvmPrefetch)},
        {"uvm_prefetch overall gain, Super (geomean)",
         paper::microUvmPrefetchGainSuper,
         geomeanImprovement(super, TransferMode::UvmPrefetch)},
        {"uvm_prefetch_async overall gain, Super (geomean)",
         paper::microUvmPrefetchAsyncGainSuper,
         geomeanImprovement(super, TransferMode::UvmPrefetchAsync)},
        {"uvm memcpy saving, Large (geomean)",
         paper::microUvmTransferSavingLarge,
         geomeanComponentSaving(large, TransferMode::Uvm, 1)},
        {"uvm memcpy saving, Super (geomean)",
         paper::microUvmTransferSavingSuper,
         geomeanComponentSaving(super, TransferMode::Uvm, 1)},
        {"vector_seq async kernel-time change, Large",
         -paper::vectorSeqAsyncKernelSaving,
         kernelChange(vec, TransferMode::Async)},
        {"2DCONV async kernel-time change, Large",
         paper::conv2dAsyncKernelIncrease,
         kernelChange(conv2d, TransferMode::Async)},
        {"gemm uvm_prefetch_async kernel-time change, Super",
         paper::gemmPrefetchAsyncKernelIncrease,
         kernelChange(gemmSuper, TransferMode::UvmPrefetchAsync)},
    };
    printTable(std::cout,
               "Section 4.1.1 headline numbers (paper vs measured)",
               comparisonTable(rows));
}

/**
 * Figure 8: the 14 real-world applications at Super input size under
 * the five configurations, normalized to standard, plus the
 * Section 4.1.2 / abstract headline numbers (21% gain with UVM
 * prefetch, 23% with prefetch + async memcpy) paper-vs-measured.
 */
void
fig8Apps(ResultCache &cache)
{
    const ExperimentOptions opts = optsAt(SizeClass::Super, 30);
    cache.prefetchGrid(appNames(), {opts});
    std::vector<ModeSet> apps;
    ModeSet lud;
    for (const std::string &name : appNames()) {
        apps.push_back(cache.modes(name, opts));
        if (name == "lud")
            lud = apps.back();
    }

    printTable(std::cout, "Figure 8: real-world applications, Super "
                          "input (normalized to standard)",
               breakdownTable(apps));

    double ludAsyncOverUvm =
        findMode(lud, TransferMode::UvmPrefetch)
            .meanBreakdown()
            .overallPs() /
        findMode(lud, TransferMode::Async).meanBreakdown().overallPs();

    std::vector<ComparisonRow> rows = {
        {"async overall gain (geomean)", paper::appsAsyncGain,
         geomeanImprovement(apps, TransferMode::Async)},
        {"uvm overall gain (geomean)", paper::appsUvmGain,
         geomeanImprovement(apps, TransferMode::Uvm)},
        {"uvm_prefetch overall gain (geomean)",
         paper::appsUvmPrefetchGain,
         geomeanImprovement(apps, TransferMode::UvmPrefetch)},
        {"uvm_prefetch_async overall gain (geomean)",
         paper::appsUvmPrefetchAsyncGain,
         geomeanImprovement(apps, TransferMode::UvmPrefetchAsync)},
        {"uvm memcpy saving (geomean)", paper::appsUvmTransferSaving,
         geomeanComponentSaving(apps, TransferMode::Uvm, 1)},
        {"uvm_prefetch memcpy saving (geomean)",
         paper::appsUvmPrefetchTransferSaving,
         geomeanComponentSaving(apps, TransferMode::UvmPrefetch, 1)},
        {"uvm_prefetch_async memcpy saving (geomean)",
         paper::appsUvmPrefetchAsyncTransferSaving,
         geomeanComponentSaving(apps, TransferMode::UvmPrefetchAsync,
                                1)},
        {"uvm_prefetch kernel-time increase (geomean)",
         paper::appsUvmPrefetchKernelIncrease,
         -geomeanComponentSaving(apps, TransferMode::UvmPrefetch, 2)},
        {"uvm_prefetch_async kernel-time increase (geomean)",
         paper::appsUvmPrefetchAsyncKernelIncrease,
         -geomeanComponentSaving(apps, TransferMode::UvmPrefetchAsync,
                                 2)},
        {"lud: async speedup over uvm_prefetch (x, -1)",
         paper::ludAsyncOverUvmSpeedup - 1.0, ludAsyncOverUvm - 1.0},
    };
    printTable(std::cout,
               "Section 4.1.2 / abstract headline numbers "
               "(paper vs measured)",
               comparisonTable(rows));
}

/**
 * Figure 9: control and integer instruction counts of gemm, lud and
 * yolov3 under the five configurations. Async memcpy raises control
 * counts ~40% on gemm and ~30% on yolov3 but barely registers on
 * branch-heavy lud.
 */
void
fig9InstMix(ResultCache &cache)
{
    const ExperimentOptions opts =
        optsAt(SizeClass::Super, 1); // counters are deterministic
    cache.prefetchGrid(kMixWorkloads, {opts});
    TextTable table({"workload", "mode", "control", "integer",
                     "memory", "fp"});
    for (const std::string &name : kMixWorkloads) {
        for (const ExperimentResult &res : cache.modes(name, opts)) {
            const InstrMix &m = res.counters.instrs;
            table.addRow({name, transferModeName(res.mode),
                          fmtCount(m.control), fmtCount(m.integer),
                          fmtCount(m.memory), fmtCount(m.fp)});
        }
        table.addSeparator();
    }
    printTable(std::cout,
               "Figure 9: instruction-mix comparison (gemm / lud / "
               "yolov3)",
               table);

    std::vector<ComparisonRow> rows = {
        {"gemm: async control-instruction increase",
         paper::gemmAsyncControlIncrease,
         ctrlIncrease(cache.modes("gemm", opts))},
        {"yolov3: async control-instruction increase",
         paper::yoloAsyncControlIncrease,
         ctrlIncrease(cache.modes("yolov3", opts))},
        {"lud: async control-instruction increase (small)", 0.05,
         ctrlIncrease(cache.modes("lud", opts))},
    };
    printTable(std::cout, "Figure 9 headline (paper vs measured)",
               comparisonTable(rows));
}

/**
 * Figure 10: unified-L1 load/store miss rates of gemm, lud and
 * yolov3 under the five configurations. Async memcpy slashes both
 * rates on lud (its data gets staged through shared memory instead
 * of thrashing L1), which is the root cause of its speedup.
 */
void
fig10CacheMiss(ResultCache &cache)
{
    const ExperimentOptions opts = optsAt(SizeClass::Super, 1);
    cache.prefetchGrid(kMixWorkloads, {opts});
    TextTable table({"workload", "mode", "load miss rate",
                     "store miss rate"});
    for (const std::string &name : kMixWorkloads) {
        for (const ExperimentResult &res : cache.modes(name, opts)) {
            table.addRow({name, transferModeName(res.mode),
                          fmtDouble(res.counters.l1LoadMissRate, 4),
                          fmtDouble(res.counters.l1StoreMissRate,
                                    4)});
        }
        table.addSeparator();
    }
    printTable(std::cout,
               "Figure 10: global cache miss-rate comparison", table);

    const ModeSet lud = cache.modes("lud", opts);
    double loadStd =
        findMode(lud, TransferMode::Standard).counters.l1LoadMissRate;
    double loadAsync =
        findMode(lud, TransferMode::Async).counters.l1LoadMissRate;
    double storeStd =
        findMode(lud, TransferMode::Standard).counters
            .l1StoreMissRate;
    double storeAsync =
        findMode(lud, TransferMode::Async).counters.l1StoreMissRate;

    std::vector<ComparisonRow> rows = {
        {"lud: async load miss-rate reduction",
         paper::ludAsyncLoadMissReduction, 1.0 - loadAsync / loadStd},
        {"lud: async store miss-rate reduction",
         paper::ludAsyncStoreMissReduction,
         1.0 - storeAsync / storeStd},
    };
    printTable(std::cout, "Figure 10 headline (paper vs measured)",
               comparisonTable(rows));
}

/**
 * Figure 11: sensitivity of vector_seq to the number of CUDA blocks
 * (4096 -> 16 at 256 threads/block). Expected shape: performance is
 * essentially flat across block counts (Takeaway 4), with async /
 * uvm_prefetch / uvm_prefetch_async keeping their average gains.
 */
void
fig11Blocks(ResultCache &cache)
{
    std::vector<SweepPoint> points = cache.sweep(blockSweepGrid(
        "vector_seq", {4096, 2048, 1024, 512, 256, 128, 64, 32, 16},
        optsAt(SizeClass::Super, 5)));

    TextTable table({"# blocks", "standard", "async", "uvm",
                     "uvm_prefetch", "uvm_prefetch_async"});
    addNormalizedRows(table, points, countLabel);
    std::vector<double> gains[3];
    for (const SweepPoint &point : points) {
        double base = findMode(point.modes, TransferMode::Standard)
                          .meanBreakdown()
                          .overallPs();
        gains[0].push_back(
            base / findMode(point.modes, TransferMode::Async)
                       .meanBreakdown()
                       .overallPs());
        gains[1].push_back(
            base / findMode(point.modes, TransferMode::UvmPrefetch)
                       .meanBreakdown()
                       .overallPs());
        gains[2].push_back(
            base /
            findMode(point.modes, TransferMode::UvmPrefetchAsync)
                .meanBreakdown()
                .overallPs());
    }
    printTable(std::cout,
               "Figure 11: vector_seq vs # of blocks "
               "(normalized to standard @4096)",
               table);

    std::vector<ComparisonRow> rows = {
        {"async average gain across block counts",
         paper::blockSweepAsyncGain, geomean(gains[0]) - 1.0},
        {"uvm_prefetch average gain across block counts",
         paper::blockSweepUvmPrefetchGain, geomean(gains[1]) - 1.0},
        {"uvm_prefetch_async average gain across block counts",
         paper::blockSweepUvmPrefetchAsyncGain,
         geomean(gains[2]) - 1.0},
    };
    printTable(std::cout, "Figure 11 headline (paper vs measured)",
               comparisonTable(rows));
}

/**
 * Figure 12: sensitivity of vector_seq to threads per block
 * (1024 -> 32 on a fixed 64-block grid). Expected shape: strong
 * sensitivity (under-occupied SMs cannot hide memory latency; 32
 * threads run the kernel ~4x slower than 128), with async's edge
 * growing as threads shrink (deeper per-thread buffers).
 */
void
fig12Threads(ResultCache &cache)
{
    std::vector<SweepPoint> points = cache.sweep(
        threadSweepGrid("vector_seq", {1024, 512, 256, 128, 64, 32},
                        64, optsAt(SizeClass::Super, 5)));
    auto kernelAt = [&](std::uint64_t threads, TransferMode mode) {
        for (const SweepPoint &p : points) {
            if (p.value == threads)
                return findMode(p.modes, mode).clean.kernelPs;
        }
        return 0.0;
    };
    auto asyncGainAt = [&](std::uint64_t threads) {
        return 1.0 - kernelAt(threads, TransferMode::Async) /
                         kernelAt(threads, TransferMode::Standard);
    };

    TextTable table({"# threads", "standard", "async", "uvm",
                     "uvm_prefetch", "uvm_prefetch_async",
                     "kernel(std)"});
    double ref = 0.0;
    for (const SweepPoint &point : points) {
        double base = findMode(point.modes, TransferMode::Standard)
                          .meanBreakdown()
                          .overallPs();
        if (ref == 0.0)
            ref = base;
        std::vector<std::string> row = {std::to_string(point.value)};
        for (TransferMode m : allTransferModes) {
            double v =
                findMode(point.modes, m).meanBreakdown().overallPs();
            row.push_back(fmtDouble(v / ref, 3));
        }
        row.push_back(fmtTime(
            findMode(point.modes, TransferMode::Standard)
                .clean.kernelPs));
        table.addRow(row);
    }
    printTable(std::cout,
               "Figure 12: vector_seq vs threads per block "
               "(64 blocks, normalized to standard @1024)",
               table);

    double ratio = kernelAt(32, TransferMode::Standard) /
                   kernelAt(128, TransferMode::Standard);
    std::vector<ComparisonRow> rows = {
        {"kernel time at 32 threads vs 128 threads (x, -1)",
         paper::threads32Vs128KernelRatio - 1.0, ratio - 1.0},
        {"async kernel gain at 1024 threads",
         paper::asyncGain1024Threads, asyncGainAt(1024)},
        {"async kernel gain at 32 threads",
         paper::asyncGain32Threads, asyncGainAt(32)},
    };
    printTable(std::cout, "Figure 12 headline (paper vs measured)",
               comparisonTable(rows));
}

/**
 * Figure 13: sensitivity of vector_seq to the L1-cache/shared-memory
 * partition (2 KiB -> 128 KiB carveout). Expected shape (Takeaway 5):
 * too little shared memory starves the async pipeline; too much
 * shrinks L1 and hurts the UVM configurations.
 */
void
fig13SharedMem(ResultCache &cache)
{
    std::vector<SweepPoint> points = cache.sweep(sharedMemSweepGrid(
        "vector_seq",
        {kib(2), kib(4), kib(8), kib(16), kib(32), kib(64), kib(128)},
        optsAt(SizeClass::Super, 5)));

    TextTable table({"shared mem", "standard", "async", "uvm",
                     "uvm_prefetch", "uvm_prefetch_async"});
    addNormalizedRows(table, points, bytesLabel);
    printTable(std::cout,
               "Figure 13: vector_seq vs L1/shared partition "
               "(normalized to standard @2KiB)",
               table);

    // Takeaway 5 shape checks on kernel time.
    auto kernelOf = [](const SweepPoint &p, TransferMode m) {
        return findMode(p.modes, m).clean.kernelPs;
    };
    const SweepPoint &tiny = points.front(); // 2 KiB
    const SweepPoint &mid = points[4];       // 32 KiB
    const SweepPoint &huge = points.back();  // 128 KiB
    TextTable shape({"check", "value", "expectation"});
    shape.addRow({"async kernel @2KiB / @32KiB",
                  fmtDouble(kernelOf(tiny, TransferMode::Async) /
                                kernelOf(mid, TransferMode::Async),
                            2),
                  "> 1 (starved pipeline)"});
    shape.addRow(
        {"uvm_prefetch kernel @128KiB / @32KiB",
         fmtDouble(kernelOf(huge, TransferMode::UvmPrefetch) /
                       kernelOf(mid, TransferMode::UvmPrefetch),
                   2),
         "> 1 (L1 squeezed by UVM)"});
    shape.addRow(
        {"standard kernel @128KiB / @32KiB",
         fmtDouble(kernelOf(huge, TransferMode::Standard) /
                       kernelOf(mid, TransferMode::Standard),
                   2),
         "smaller increase than uvm_prefetch"});
    printTable(std::cout, "Takeaway 5 shape checks", shape);
}

/**
 * Figure 14 / Section 6: the proposed inter-job data-transfer model.
 * Reproduces the discussion's bookkeeping — component shares before
 * (standard) and after (uvm_prefetch_async) across the app suite —
 * then schedules a batch of jobs under the overlapped model and
 * reports the projected gain (the paper estimates "more than 30%").
 */
void
fig14InterJob(ResultCache &cache)
{
    const ExperimentOptions opts = optsAt(SizeClass::Super, 5);
    cache.prefetchGrid(appNames(), {opts});

    struct Shares
    {
        double alloc = 0.0;
        double transfer = 0.0;
        double kernel = 0.0;
    };
    auto averageShares = [&](TransferMode mode) {
        Shares shares;
        for (const std::string &name : appNames()) {
            TimeBreakdown mean =
                cache.get({name, mode, opts}).meanBreakdown();
            double total = mean.overallPs();
            shares.alloc += mean.allocPs / total;
            shares.transfer += mean.transferPs / total;
            shares.kernel += mean.kernelPs / total;
        }
        auto n = static_cast<double>(appNames().size());
        shares.alloc /= n;
        shares.transfer /= n;
        shares.kernel /= n;
        return shares;
    };
    Shares before = averageShares(TransferMode::Standard);
    Shares after = averageShares(TransferMode::UvmPrefetchAsync);

    TextTable table({"component", "standard", "uvm_prefetch_async"});
    table.addRow({"data transfer", fmtPercent(before.transfer),
                  fmtPercent(after.transfer)});
    table.addRow({"data allocation", fmtPercent(before.alloc),
                  fmtPercent(after.alloc)});
    table.addRow({"gpu kernel", fmtPercent(before.kernel),
                  fmtPercent(after.kernel)});
    printTable(std::cout,
               "Section 6.1: average component shares across the 14 "
               "applications",
               table);

    std::vector<ComparisonRow> shareRows = {
        {"transfer share before", paper::transferShareBefore,
         before.transfer},
        {"transfer share after", paper::transferShareAfter,
         after.transfer},
        {"allocation share before", paper::allocShareBefore,
         before.alloc},
        {"allocation share after", paper::allocShareAfter,
         after.alloc},
    };
    printTable(std::cout,
               "Section 6.1 shares (paper vs measured)",
               comparisonTable(shareRows));

    // Schedule a batch of uvm_prefetch_async jobs under the
    // inter-job pipeline (Figure 14).
    std::vector<TimeBreakdown> batch;
    for (const std::string &name : appNames()) {
        batch.push_back(
            cache.get({name, TransferMode::UvmPrefetchAsync, opts})
                .meanBreakdown());
    }
    BatchScheduleResult sched = scheduleBatch(batch);

    TextTable pipeline({"model", "batch makespan", "improvement"});
    pipeline.addRow({"current (serial jobs)",
                     fmtTime(sched.serialPs), "-"});
    pipeline.addRow({"inter-job pipeline (Figure 14)",
                     fmtTime(sched.pipelinedPs),
                     fmtPercent(sched.improvement())});
    printTable(std::cout,
               "Figure 14: batch of 14 apps under the new data "
               "transfer model",
               pipeline);

    printTable(std::cout, "Section 6.2 headline (paper vs measured)",
               comparisonTable({{"inter-job pipeline gain",
                                 paper::interJobModelGain,
                                 sched.improvement()}}));

    // The Figure 14 chart itself (first four jobs for legibility).
    std::vector<TimeBreakdown> head(
        batch.begin(), batch.begin() + std::min<std::size_t>(
                                           4, batch.size()));
    BatchTimelines charts = buildBatchTimelines(head);
    std::cout << "\nFigure 14 (top): current model, jobs back to "
                 "back\n"
              << charts.serial.gantt() << "\n";
    std::cout << "Figure 14 (bottom): inter-job pipeline\n"
              << charts.pipelined.gantt();
}

} // namespace bench
} // namespace uvmasync
