/**
 * @file
 * Our ablations: each changes one knob of the testbed (fault-batch
 * size, demand prefetcher, link bandwidth, pinned host memory, async
 * memcpy API) and runs its own points on that testbed, so none of
 * them goes through the default testbed's ResultCache.
 */

#include <iostream>

#include "figures.hh"
#include "runtime/device.hh"

namespace uvmasync
{
namespace bench
{

namespace
{

ExperimentOptions
superOpts()
{
    ExperimentOptions opts;
    opts.size = SizeClass::Super;
    opts.runs = 3;
    return opts;
}

} // namespace

/**
 * Ablation: UVM fault-batch size. The paper's related work (Kim et
 * al.) motivates batched fault handling; this ablation sweeps the
 * driver's maximum batch size and shows how demand-paged (plain uvm)
 * kernel time responds on a streaming workload.
 */
void
ablationFaultBatch(ResultCache &)
{
    TextTable table({"max batch size", "gpu_kernel", "memcpy",
                     "overall", "faults"});
    for (std::uint32_t batch : {1, 4, 16, 64, 256}) {
        SystemConfig cfg = SystemConfig::a100Epyc();
        cfg.uvm.fault.maxBatchSize = batch;
        // Fault-rate stress: migrate at the driver's 64 KiB
        // basic-block granularity so fault servicing, not the link,
        // is on the critical path (the regime batching was designed
        // for).
        cfg.uvm.chunkBytes = kib(64);
        ExperimentResult res = Experiment(cfg).run(
            "vector_seq", TransferMode::Uvm, superOpts());
        TimeBreakdown mean = res.meanBreakdown();
        table.addRow({std::to_string(batch), fmtTime(mean.kernelPs),
                      fmtTime(mean.transferPs),
                      fmtTime(mean.overallPs()),
                      fmtCount(static_cast<double>(
                          res.counters.faults))});
    }
    printTable(std::cout,
               "Ablation: fault-batch size vs uvm performance "
               "(vector_seq, Super)",
               table);
    std::cout << "Expected shape: kernel time shrinks as batching "
                 "amortizes the per-batch driver latency, then "
                 "saturates once the PCIe drain dominates.\n";
}

/**
 * Ablation: driver-side demand prefetcher. The paper's `uvm`
 * configuration fault-pages everything; this ablation enables the
 * simulator's stream and tree prefetchers on the demand path and
 * shows how much of the uvm_prefetch gap speculation can close — and
 * that irregular workloads defeat it (the Takeaway 2 mechanism).
 */
void
ablationPrefetcher(ResultCache &)
{
    const std::vector<std::pair<PrefetcherKind, const char *>> kinds =
        {
            {PrefetcherKind::None, "none"},
            {PrefetcherKind::Stream, "stream"},
            {PrefetcherKind::Tree, "tree"},
        };
    TextTable table({"workload", "prefetcher", "gpu_kernel",
                     "overall", "faults", "prefetch accuracy"});
    for (const char *workload :
         {"vector_seq", "vector_rand", "lud"}) {
        for (const auto &[kind, name] : kinds) {
            SystemConfig cfg = SystemConfig::a100Epyc();
            cfg.uvm.demandPrefetcher = kind;
            // One run through a device we can interrogate.
            Device device(cfg);
            Job job = WorkloadRegistry::instance()
                          .get(workload)
                          .makeJob(SizeClass::Super);
            RunResult run = device.run(job, TransferMode::Uvm);
            table.addRow(
                {workload, name, fmtTime(run.breakdown.kernelPs),
                 fmtTime(run.breakdown.overallPs()),
                 fmtCount(static_cast<double>(run.counters.faults)),
                 fmtDouble(
                     device.migrationEngine().prefetcher().accuracy(),
                     3)});
        }
        table.addSeparator();
    }
    printTable(std::cout,
               "Ablation: demand-path prefetcher under plain uvm",
               table);
    std::cout << "Expected shape: sequential workloads fault less "
                 "with speculation; random/irregular access defeats "
                 "it (low accuracy, little fault reduction).\n";
}

/**
 * Ablation: interconnect generation. Sweeps the raw link bandwidth
 * (PCIe 3.0 / 4.0 / 5.0 / NVLink-class) and reports how the benefit
 * of uvm_prefetch(+async) over standard shifts — faster links shrink
 * the transfer component that UVM prefetch attacks, moving the
 * bottleneck to allocation (the Section 6 motivation).
 */
void
ablationPcie(ResultCache &)
{
    const std::vector<std::pair<double, const char *>> links = {
        {13.0, "PCIe 3.0 x16"},
        {26.0, "PCIe 4.0 x16"},
        {52.0, "PCIe 5.0 x16"},
        {200.0, "NVLink-class"},
    };
    TextTable table({"link", "standard overall",
                     "uvm_prefetch gain",
                     "uvm_prefetch_async gain",
                     "transfer share (standard)"});
    table.setAlign(0, TextTable::Align::Left);
    for (const auto &[gbps, name] : links) {
        SystemConfig cfg = SystemConfig::a100Epyc();
        cfg.pcie.rawBandwidth = Bandwidth::fromGBps(gbps);
        ModeSet set =
            Experiment(cfg).runAllModes("vector_seq", superOpts());
        TimeBreakdown base =
            findMode(set, TransferMode::Standard).meanBreakdown();
        double prefetch =
            findMode(set, TransferMode::UvmPrefetch)
                .meanBreakdown()
                .overallPs();
        double combo =
            findMode(set, TransferMode::UvmPrefetchAsync)
                .meanBreakdown()
                .overallPs();
        table.addRow(
            {name, fmtTime(base.overallPs()),
             fmtPercent(1.0 - prefetch / base.overallPs()),
             fmtPercent(1.0 - combo / base.overallPs()),
             fmtPercent(base.transferPs / base.overallPs())});
    }
    printTable(std::cout,
               "Ablation: interconnect bandwidth vs UVM benefit "
               "(vector_seq, Super)",
               table);
    std::cout << "Expected shape: the UVM-prefetch gain shrinks as "
                 "the link speeds up, leaving allocation as the "
                 "bottleneck the Section 6 inter-job model targets.\n";
}

/**
 * Ablation: pinned host memory. The paper's explicit `standard`
 * setup copies from pageable malloc'd memory (staged through pinned
 * bounce buffers). This ablation adds the cudaHostAlloc variant —
 * the classic alternative to UVM prefetch — and shows how much of
 * uvm_prefetch's transfer advantage simple pinning recovers, at the
 * cost of page-locked host memory.
 */
void
ablationPinned(ResultCache &)
{
    TextTable table({"workload", "standard (pageable)",
                     "standard + pinned host", "uvm_prefetch"});
    for (const char *name :
         {"vector_seq", "saxpy", "2DCONV", "kmeans", "knn"}) {
        Job job = WorkloadRegistry::instance().get(name).makeJob(
            SizeClass::Super);
        Device device(SystemConfig::a100Epyc());
        RunOptions opts;
        double pageable = device.run(job, TransferMode::Standard, opts)
                              .breakdown.overallPs();
        opts.pinnedHost = true;
        double pinned = device.run(job, TransferMode::Standard, opts)
                            .breakdown.overallPs();
        opts.pinnedHost = false;
        double prefetch =
            device.run(job, TransferMode::UvmPrefetch, opts)
                .breakdown.overallPs();
        table.addRow({name, fmtTime(pageable),
                      fmtTime(pinned) + " (" +
                          fmtPercent(1.0 - pinned / pageable) + ")",
                      fmtTime(prefetch) + " (" +
                          fmtPercent(1.0 - prefetch / pageable) +
                          ")"});
    }
    printTable(std::cout,
               "Ablation: pinned host memory vs UVM prefetch "
               "(Super, overall time; % = saving vs pageable)",
               table);
    std::cout
        << "Pinning recovers most of the transfer-time gap without "
           "managed memory, but keeps the programmer on explicit "
           "copies and page-locks host RAM — the trade-off UVM "
           "prefetch removes.\n";
}

/**
 * Ablation: async memcpy API choice. The paper uses the CUDA
 * Pipeline API "since it showed better performance than Arrive/Wait
 * Barriers [Svedin et al.]" (Section 3.2.1). This ablation models
 * the barrier variant with a heavier per-warp wait cost and
 * quantifies how much of the async benefit the API choice is worth.
 */
void
ablationAsyncApi(ResultCache &)
{
    const std::vector<std::pair<double, const char *>> apis = {
        {1.0, "cuda::pipeline"},
        {1.9, "arrive/wait barrier"},
    };
    TextTable table({"workload", "api", "async kernel",
                     "vs standard kernel",
                     "uvm_prefetch_async overall gain"});
    table.setAlign(1, TextTable::Align::Left);
    for (const char *workload :
         {"vector_seq", "vector_rand", "kmeans"}) {
        for (const auto &[mult, name] : apis) {
            SystemConfig cfg = SystemConfig::a100Epyc();
            cfg.gpu.asyncWaitMultiplier = mult;
            ModeSet set =
                Experiment(cfg).runAllModes(workload, superOpts());
            double stdKernel =
                findMode(set, TransferMode::Standard).clean.kernelPs;
            double asyncKernel =
                findMode(set, TransferMode::Async).clean.kernelPs;
            double base = findMode(set, TransferMode::Standard)
                              .meanBreakdown()
                              .overallPs();
            double combo =
                findMode(set, TransferMode::UvmPrefetchAsync)
                    .meanBreakdown()
                    .overallPs();
            table.addRow({workload, name, fmtTime(asyncKernel),
                          fmtPercent(asyncKernel / stdKernel - 1.0),
                          fmtPercent(1.0 - combo / base)});
        }
        table.addSeparator();
    }
    printTable(std::cout,
               "Ablation: CUDA Pipeline API vs Arrive/Wait barriers "
               "(Super)",
               table);
    std::cout << "The barrier variant's heavier wait_group drain "
                 "erodes the async kernel savings — the reason the "
                 "paper's suite standardises on the Pipeline API.\n";
}

} // namespace bench
} // namespace uvmasync
