#include "store/fingerprint.hh"

#include "common/stable_hash.hh"

namespace uvmasync
{

std::uint64_t
modelSemanticsFingerprint(const SystemConfig &s)
{
    StableHasher h;
    h.u64(modelSemanticsVersion);

    const HostMemoryConfig &host = s.host;
    h.u64(host.dimmCount);
    h.u64(host.dimmCapacity);
    h.f64(host.readBandwidth.bytesPerSecond());
    h.f64(host.straddleThreshold);
    h.f64(host.straddlePenalty);
    h.f64(host.spillSpanFraction);

    const GpuConfig &gpu = s.gpu;
    h.u64(gpu.smCount);
    h.f64(gpu.clock.hz());
    h.u64(gpu.coresPerSm);
    h.u64(gpu.maxThreadsPerSm);
    h.u64(gpu.maxBlocksPerSm);
    h.u64(gpu.maxWarpsPerSm);
    h.u64(gpu.warpSize);
    h.u64(gpu.unifiedL1Bytes);
    h.u64(gpu.maxSharedBytes);
    h.u64(gpu.defaultSharedCarveout);
    h.u64(gpu.l1LineBytes);
    h.u64(gpu.l1Ways);
    h.f64(gpu.hbmBandwidth.bytesPerSecond());
    h.f64(gpu.l2Bandwidth.bytesPerSecond());
    h.u64(gpu.l2CapacityBytes);
    h.f64(gpu.smLsuBandwidth.bytesPerSecond());
    h.f64(gpu.fpPerCycle);
    h.f64(gpu.intPerCycle);
    h.f64(gpu.ctrlPerCycle);
    h.f64(gpu.memIssuePerCycle);
    h.u64(gpu.kernelLaunchOverhead);
    h.f64(gpu.asyncCtrlPerThreadTile);
    h.f64(gpu.asyncIntPerThreadTile);
    h.f64(gpu.asyncCopyBwBonus);
    h.f64(gpu.asyncSharedMemFactor);
    h.f64(gpu.asyncWaitMultiplier);
    h.u64(gpu.gpuPageBytes);
    h.f64(gpu.pageWalkCycles);
    h.f64(gpu.tlbMissFraction);

    const PcieConfig &pcie = s.pcie;
    h.f64(pcie.rawBandwidth.bytesPerSecond());
    for (double e : pcie.efficiency)
        h.f64(e);
    for (Tick t : pcie.perTransferLatency)
        h.u64(t);

    const UvmConfig &uvm = s.uvm;
    h.u64(uvm.chunkBytes);
    h.u64(uvm.fault.batchBaseLatency);
    h.u64(uvm.fault.perFaultLatency);
    h.u64(uvm.fault.batchWindow);
    h.u64(uvm.fault.maxBatchSize);
    h.u64(static_cast<std::uint64_t>(uvm.demandPrefetcher));
    h.u64(uvm.prefetchCallOverhead);
    h.f64(uvm.redundantPrefetchChurn);

    const AllocatorConfig &alloc = s.alloc;
    h.u64(alloc.contextInit);
    h.u64(alloc.deviceAllocBase);
    h.u64(alloc.deviceAllocPerGiB);
    h.u64(alloc.deviceFreeBase);
    h.u64(alloc.deviceFreePerGiB);
    h.u64(alloc.managedAllocBase);
    h.u64(alloc.managedAllocPerGiB);
    h.u64(alloc.managedFreeBase);
    h.u64(alloc.managedFreePerGiB);

    const NoiseConfig &noise = s.noise;
    h.f64(noise.allocCv);
    h.f64(noise.transferCv);
    h.f64(noise.kernelCv);
    h.u64(noise.systemOverheadMean);
    h.f64(noise.systemOverheadCv);

    // Watchdog ceilings intentionally excluded (see fingerprint.hh).
    h.u64(s.deviceMemoryBytes);
    return h.hash();
}

} // namespace uvmasync
