#include "analysis/cost_model.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/table.hh"
#include "gpu/kernel_executor.hh"

namespace uvmasync
{

namespace
{

/** Link occupancy of one transfer, replicating PcieLink::transfer's
 * efficiency scaling and per-kind setup latency byte-for-byte. */
double
linkDurationPs(const PcieConfig &pcie, Bytes bytes, TransferKind kind)
{
    if (bytes == 0)
        return 0.0;
    auto ki = static_cast<std::size_t>(kind);
    double eff = pcie.efficiency[ki];
    double bps = pcie.rawBandwidth.bytesPerSecond();
    if (eff <= 0.0 || bps <= 0.0)
        return 0.0;
    double latencyBytes =
        static_cast<double>(pcie.perTransferLatency[ki]) * bps / 1e12;
    double scaled =
        std::ceil(static_cast<double>(bytes) / eff + latencyBytes);
    return std::ceil(scaled * 1e12 / bps);
}

/** Allocator::charge for one call (context-init handled by caller). */
double
allocCallPs(Tick base, Tick perGiB, Bytes bytes)
{
    double gibCount = static_cast<double>(bytes) /
                      static_cast<double>(gib(1));
    return static_cast<double>(base) +
           std::ceil(static_cast<double>(perGiB) * gibCount);
}

/** Full alloc+free charge of the job (Device charges the context
 * init once per run because it resets the allocator context). */
double
allocPhasePs(const AllocatorConfig &a, const Job &job, bool managed)
{
    double total = static_cast<double>(a.contextInit);
    for (const JobBuffer &buf : job.buffers) {
        if (managed) {
            total += allocCallPs(a.managedAllocBase,
                                 a.managedAllocPerGiB, buf.bytes);
            total += allocCallPs(a.managedFreeBase,
                                 a.managedFreePerGiB, buf.bytes);
        } else {
            total += allocCallPs(a.deviceAllocBase,
                                 a.deviceAllocPerGiB, buf.bytes);
            total += allocCallPs(a.deviceFreeBase,
                                 a.deviceFreePerGiB, buf.bytes);
        }
    }
    return total;
}

std::uint64_t
chunksOf(Bytes bytes, Bytes chunk)
{
    if (bytes == 0 || chunk == 0)
        return 0;
    return (bytes + chunk - 1) / chunk;
}

/** Per-buffer state the UVM regimes thread through the phases. */
struct BufferState
{
    /** Bytes resident after the populate/upfront-prefetch phase. */
    Bytes residentInit = 0;

    /** Stays device-resident once loaded (its demanded span plus
     * the widest reuse gap fit in device memory). */
    bool stays = true;
};

/** Static per-launch estimates for one mode, by kernel index; the
 * L1 simulations go through @p l1, shared across modes. */
std::vector<KernelStaticEstimate>
kernelEstimates(const SystemConfig &system, const Job &job,
                TransferMode mode, L1Memo &l1)
{
    KernelExecConfig ec;
    ec.gpu = system.gpu;
    ec.mode = mode;
    ec.bufferBytes = job.bufferSizes();
    ec.l1Memo = &l1;
    ec.bufferRangeIds.resize(job.buffers.size());
    std::iota(ec.bufferRangeIds.begin(), ec.bufferRangeIds.end(), 0);
    KernelExecutor ex(std::move(ec));
    std::vector<KernelStaticEstimate> out;
    out.reserve(job.kernels.size());
    for (const KernelDescriptor &kd : job.kernels)
        out.push_back(ex.estimateResident(kd));
    return out;
}

ModeCost
explicitCost(const SystemConfig &system, const Job &job,
             const DataflowSummary &flow, TransferMode mode,
             const std::vector<KernelStaticEstimate> &est)
{
    ModeCost mc;
    mc.mode = mode;
    mc.allocPs = allocPhasePs(system.alloc, job, /*managed=*/false);
    for (const JobBuffer &buf : job.buffers) {
        if (buf.hostInit) {
            mc.h2dBytes += buf.bytes;
            mc.transferPs += linkDurationPs(system.pcie, buf.bytes,
                                            TransferKind::PageableCopy);
            ++mc.predictedEvents;
        }
        if (buf.hostConsumed) {
            mc.d2hBytes += buf.bytes;
            mc.transferPs += linkDurationPs(system.pcie, buf.bytes,
                                            TransferKind::PageableCopy);
            ++mc.predictedEvents;
        }
    }
    for (const KernelStaticEstimate &e : est)
        mc.kernelPs += static_cast<double>(flow.repeats) *
                       static_cast<double>(e.launchPs);
    return mc;
}

ModeCost
uvmCost(const SystemConfig &system, const Job &job,
        const DataflowSummary &flow, TransferMode mode,
        const std::vector<KernelStaticEstimate> &est)
{
    ModeCost mc;
    mc.mode = mode;
    mc.allocPs = allocPhasePs(system.alloc, job, /*managed=*/true);

    const Bytes capacity = flow.deviceCapacity;
    const Bytes chunk = flow.chunkBytes ? flow.chunkBytes : kib(256);
    const bool prefetch = usesPrefetch(mode);
    const double demandChunkPs = linkDurationPs(
        system.pcie, chunk, TransferKind::DemandMigration);
    const double batchBasePs =
        static_cast<double>(system.uvm.fault.batchBaseLatency);
    const std::uint32_t maxBatch =
        std::max<std::uint32_t>(1, system.uvm.fault.maxBatchSize);

    std::vector<BufferState> st(flow.buffers.size());

    // ---- Populate phase: outputs materialise device-side for free,
    // in buffer order, until device memory is full.
    Bytes resident = 0;
    for (std::size_t i = 0; i < flow.buffers.size(); ++i) {
        const BufferFlow &bf = flow.buffers[i];
        if (bf.hostInit)
            continue;
        Bytes take = std::min(bf.bytes, capacity - std::min(capacity,
                                                            resident));
        st[i].residentInit = take;
        resident += take;
    }

    // ---- Upfront prefetch phase (uvm_prefetch*): one bulk transfer
    // per buffer in job order; each call can evict earlier buffers.
    if (prefetch) {
        for (std::size_t i = 0; i < flow.buffers.size(); ++i) {
            const BufferFlow &bf = flow.buffers[i];
            Bytes pending = bf.bytes - st[i].residentInit;
            if (pending == 0)
                continue; // fully resident: upfront call is a no-op
            Bytes movable = std::min(pending, capacity);
            Bytes overflow =
                resident + movable > capacity
                    ? resident + movable - capacity
                    : 0;
            // Clean evictions of earlier buffers make room.
            for (std::size_t j = 0; j < i && overflow > 0; ++j) {
                Bytes evict = std::min(st[j].residentInit, overflow);
                st[j].residentInit -= evict;
                resident -= evict;
                overflow -= evict;
                mc.predictedEvents += chunksOf(evict, chunk);
            }
            st[i].residentInit += movable;
            resident += movable;
            mc.h2dBytes += movable;
            mc.migrationBytes += movable;
            mc.transferPs += linkDurationPs(system.pcie, movable,
                                            TransferKind::BulkPrefetch);
            ++mc.predictedEvents;
        }
    }

    // ---- Classify buffers: capacity-resident vs streaming.
    for (std::size_t i = 0; i < flow.buffers.size(); ++i) {
        const BufferFlow &bf = flow.buffers[i];
        bool reusedLater = bf.usesPerPass > 1 || flow.repeats > 1;
        st[i].stays = !reusedLater ||
                      bf.demandedBytes + bf.reuseDistanceBytes <=
                          capacity;
    }
    bool anyStreaming = false;
    for (const BufferState &s : st)
        anyStreaming = anyStreaming || !s.stays;
    mc.thrash = anyStreaming && flow.touchedFootprintBytes > capacity;

    // ---- Demand faults, per buffer.
    //  - resident buffers fault on first touch of chunks neither
    //    populated nor prefetched;
    //  - streaming buffers re-fault on every pass (clean LRU
    //    evictions in between: dirty bits are only set at job end,
    //    so mid-run evictions move no writeback bytes).
    Bytes demandBytes = 0;
    std::vector<Bytes> faultBytesBy(flow.buffers.size(), 0);
    for (std::size_t i = 0; i < flow.buffers.size(); ++i) {
        const BufferFlow &bf = flow.buffers[i];
        Bytes credit = st[i].residentInit;
        Bytes want;
        if (st[i].stays) {
            want = bf.demandedBytes;
        } else {
            want = static_cast<Bytes>(flow.repeats) *
                   bf.requestBytesPerPass;
        }
        faultBytesBy[i] = want > credit ? want - credit : 0;
        demandBytes += faultBytesBy[i];
    }
    // Capacity-overflow reload: resident buffers evicted to make
    // room for the demand stream re-fault once more (partial
    // oversubscription regime; no-op when everything fits).
    if (!mc.thrash) {
        Bytes wantResident = 0;
        Bytes populatedDemanded = 0;
        for (std::size_t i = 0; i < flow.buffers.size(); ++i) {
            const BufferFlow &bf = flow.buffers[i];
            wantResident +=
                std::max(st[i].residentInit, bf.demandedBytes);
            if (!bf.hostInit)
                populatedDemanded += bf.demandedBytes;
        }
        if (wantResident > capacity) {
            Bytes reload = std::min(wantResident - capacity,
                                    populatedDemanded);
            demandBytes += reload;
            mc.predictedEvents += chunksOf(reload, chunk);
        }
    }
    mc.faults = chunksOf(demandBytes, chunk);
    mc.h2dBytes += demandBytes;
    mc.migrationBytes += demandBytes;
    mc.transferPs += static_cast<double>(mc.faults) * demandChunkPs;
    mc.predictedEvents += mc.faults;
    if (mc.thrash) // each migration beyond capacity evicts a chunk
        mc.predictedEvents += mc.faults;

    // ---- Per-launch prefetch churn (prefetchEachLaunch jobs): the
    // harness re-issues cudaMemPrefetchAsync before every launch but
    // the first. Resident data pays the redundant-churn fraction;
    // oversubscribed buffers re-migrate their evicted span in full.
    if (prefetch && job.prefetchEachLaunch) {
        double churnFrac = system.uvm.redundantPrefetchChurn;
        bool first = true;
        for (std::uint64_t rep = 0; rep < flow.repeats; ++rep) {
            for (const KernelFlow &kf : flow.kernels) {
                std::size_t ki = static_cast<std::size_t>(
                    &kf - flow.kernels.data());
                if (first) {
                    first = false;
                    continue;
                }
                for (const KernelBufferUse &use :
                     job.kernels[ki].buffers) {
                    if (use.bufferId >= flow.buffers.size())
                        continue;
                    const BufferFlow &bf =
                        flow.buffers[use.bufferId];
                    Bytes move;
                    TransferKind kind = TransferKind::BulkPrefetch;
                    if (st[use.bufferId].stays &&
                        flow.footprint <= capacity) {
                        move = static_cast<Bytes>(std::ceil(
                            static_cast<double>(bf.bytes) *
                            churnFrac));
                    } else {
                        // A full cycle of the other buffers evicted
                        // this one; the call re-migrates it.
                        Bytes others = flow.footprint - bf.bytes;
                        Bytes keep = capacity > others
                                         ? capacity - others
                                         : 0;
                        Bytes pending =
                            bf.bytes > keep ? bf.bytes - keep : 0;
                        move = std::min(pending, capacity);
                        if (move == 0)
                            move = static_cast<Bytes>(std::ceil(
                                static_cast<double>(bf.bytes) *
                                churnFrac));
                    }
                    mc.h2dBytes += move;
                    mc.migrationBytes += move;
                    mc.transferPs +=
                        linkDurationPs(system.pcie, move, kind);
                    ++mc.predictedEvents;
                }
            }
        }
    }

    // ---- Kernel sequence: resident-data wave time per launch, with
    // faulting launches extended by the batched demand path (driver
    // batch drain + serialised chunk migrations dominate stalls).
    for (std::size_t ki = 0; ki < flow.kernels.size(); ++ki) {
        const KernelFlow &kf = flow.kernels[ki];
        double body = static_cast<double>(est[ki].launchPs) -
                      static_cast<double>(
                          system.gpu.kernelLaunchOverhead);
        std::uint64_t firstPassFaults = 0;
        std::uint64_t steadyFaults = 0;
        for (std::size_t bi = 0; bi < flow.buffers.size(); ++bi) {
            std::uint64_t credit = chunksOf(st[bi].residentInit,
                                            chunk);
            if (st[bi].stays) {
                std::uint64_t n = kf.newChunksByBuffer[bi];
                firstPassFaults += n > credit ? n - credit : 0;
            } else {
                std::uint64_t n = kf.chunksByBuffer[bi];
                std::uint64_t f = n > credit ? n - credit : 0;
                firstPassFaults += f;
                steadyFaults += n;
            }
        }
        for (std::uint64_t rep = 0; rep < flow.repeats; ++rep) {
            std::uint64_t f = rep == 0 ? firstPassFaults
                                       : steadyFaults;
            // Per-launch prefetch re-migration hides the demand
            // path: data arrives via the bulk transfers above.
            if (prefetch && job.prefetchEachLaunch &&
                !(rep == 0 && ki == 0))
                f = 0;
            double launch = static_cast<double>(est[ki].launchPs);
            if (f > 0) {
                double path = batchBasePs +
                              static_cast<double>(f) * demandChunkPs;
                launch = static_cast<double>(
                             system.gpu.kernelLaunchOverhead) +
                         std::max(body, path);
                mc.faultBatches += (f + maxBatch - 1) / maxBatch;
            }
            mc.kernelPs += launch;
        }
    }

    // ---- End-of-job writeback: markRangeDirty marks every chunk of
    // a host-consumed written buffer that is still resident, and one
    // Writeback transfer flushes it.
    Bytes wantTotal = 0;
    std::vector<Bytes> wantEnd(flow.buffers.size(), 0);
    for (std::size_t i = 0; i < flow.buffers.size(); ++i) {
        const BufferFlow &bf = flow.buffers[i];
        wantEnd[i] = std::max(st[i].residentInit, bf.demandedBytes);
        wantEnd[i] = std::min(wantEnd[i], bf.bytes);
        wantTotal += wantEnd[i];
    }
    double endShare =
        wantTotal > capacity && wantTotal > 0
            ? static_cast<double>(capacity) /
                  static_cast<double>(wantTotal)
            : 1.0;
    for (std::size_t i = 0; i < flow.buffers.size(); ++i) {
        const BufferFlow &bf = flow.buffers[i];
        if (!bf.hostConsumed || !bf.written)
            continue;
        Bytes residentEnd = static_cast<Bytes>(
            static_cast<double>(wantEnd[i]) * endShare);
        if (residentEnd == 0)
            continue;
        mc.d2hBytes += residentEnd;
        mc.migrationBytes += residentEnd;
        mc.transferPs += linkDurationPs(system.pcie, residentEnd,
                                        TransferKind::Writeback);
        ++mc.predictedEvents;
    }

    return mc;
}

} // namespace

CostReport
analyzeCost(const SystemConfig &system, const Job &job)
{
    CostReport report;
    report.flow = analyzeDataflow(system, job);

    // Every mode's executor shares one L1 context (default carveout
    // and seed), and same-shaped kernels share their buffer streams,
    // so one memo simulates each distinct stream once.
    const KernelExecConfig defaults;
    L1Memo l1(system.gpu, job.bufferSizes(),
              system.gpu.defaultSharedCarveout, defaults.seed);

    for (std::size_t m = 0; m < allTransferModes.size(); ++m) {
        TransferMode mode = allTransferModes[m];
        std::vector<KernelStaticEstimate> est =
            kernelEstimates(system, job, mode, l1);
        report.modes[m] = usesUvm(mode)
                              ? uvmCost(system, job, report.flow,
                                        mode, est)
                              : explicitCost(system, job,
                                             report.flow, mode, est);
    }

    auto better = [&](TransferMode a, TransferMode b) {
        return report.mode(a).overallPs() < report.mode(b).overallPs();
    };
    report.bestMode = TransferMode::Standard;
    report.bestExplicit = TransferMode::Standard;
    report.bestUvm = TransferMode::Uvm;
    for (TransferMode m : allTransferModes) {
        if (better(m, report.bestMode))
            report.bestMode = m;
        if (!usesUvm(m) && better(m, report.bestExplicit))
            report.bestExplicit = m;
        if (usesUvm(m) && better(m, report.bestUvm))
            report.bestUvm = m;
    }
    double uvmOverall = report.mode(TransferMode::Uvm).overallPs();
    double asyncOverall = report.mode(TransferMode::Async).overallPs();
    report.asyncOverUvm =
        uvmOverall > 0.0 ? asyncOverall / uvmOverall : 1.0;
    return report;
}

std::string
renderCostReport(const CostReport &report, const std::string &subject)
{
    const DataflowSummary &flow = report.flow;
    std::ostringstream os;
    os << subject << ": static cost model\n";
    os << "  footprint " << fmtBytes(static_cast<double>(flow.footprint))
       << " (" << fmtDouble(flow.oversubscription, 2)
       << "x device), demanded "
       << fmtBytes(static_cast<double>(flow.touchedFootprintBytes))
       << ", access density " << fmtDouble(flow.accessDensity, 2)
       << ", repeats " << flow.repeats << "\n";
    os << "  advisor: predicted winner "
       << transferModeName(report.bestMode) << "; async/uvm = "
       << fmtDouble(report.asyncOverUvm, 2) << " ("
       << (report.asyncOverUvm > 1.0 ? "uvm family wins"
                                     : "explicit family wins")
       << ")\n";

    TextTable table({"mode", "h2d", "d2h", "faults", "batches",
                     "migrated", "alloc", "transfer", "kernel",
                     "overall"});
    for (TransferMode m : allTransferModes) {
        const ModeCost &mc = report.mode(m);
        std::string name = transferModeName(m);
        if (m == report.bestMode)
            name += " *";
        table.addRow({
            name,
            fmtBytes(static_cast<double>(mc.h2dBytes)),
            fmtBytes(static_cast<double>(mc.d2hBytes)),
            fmtCount(static_cast<double>(mc.faults)),
            fmtCount(static_cast<double>(mc.faultBatches)),
            fmtBytes(static_cast<double>(mc.migrationBytes)),
            fmtTime(mc.allocPs),
            fmtTime(mc.transferPs),
            fmtTime(mc.kernelPs),
            fmtTime(mc.overallPs()),
        });
    }
    os << table.toString();
    return os.str();
}

} // namespace uvmasync
