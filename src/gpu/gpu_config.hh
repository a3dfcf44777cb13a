/**
 * @file
 * GPU hardware description; defaults model the Nvidia A100 of the
 * paper's Table 1 (108 SMs, 40 GB HBM2, 192 KiB unified L1/shared
 * per SM, 164 KiB maximum shared-memory carveout).
 */

#ifndef UVMASYNC_GPU_GPU_CONFIG_HH
#define UVMASYNC_GPU_GPU_CONFIG_HH

#include <cstdint>

#include "common/types.hh"
#include "common/units.hh"

namespace uvmasync
{

/** Static description of the simulated GPU. */
struct GpuConfig
{
    /** @{ Compute resources. */
    std::uint32_t smCount = 108;
    Frequency clock = Frequency::fromMHz(1410.0);
    std::uint32_t coresPerSm = 64;       //!< FP32 lanes
    std::uint32_t maxThreadsPerSm = 2048;
    std::uint32_t maxBlocksPerSm = 32;
    std::uint32_t maxWarpsPerSm = 64;
    std::uint32_t warpSize = 32;
    /** @} */

    /** @{ On-chip memory. */
    Bytes unifiedL1Bytes = kib(192);     //!< L1 + shared per SM
    Bytes maxSharedBytes = kib(164);     //!< largest legal carveout
    Bytes defaultSharedCarveout = kib(32); //!< paper's static default
    Bytes l1LineBytes = 32;              //!< sector granularity
    std::uint32_t l1Ways = 4;
    /** @} */

    /** @{ Memory system bandwidths and capacities. */
    Bandwidth hbmBandwidth = Bandwidth::fromGBps(1400.0);
    Bandwidth l2Bandwidth = Bandwidth::fromGBps(4500.0);
    Bytes l2CapacityBytes = mib(40);
    /** Per-SM load/store pipe at saturation. */
    Bandwidth smLsuBandwidth = Bandwidth::fromGBps(160.0);
    /** @} */

    /** @{ Instruction throughputs (operations per SM per cycle). */
    double fpPerCycle = 64.0;
    double intPerCycle = 64.0;
    double ctrlPerCycle = 16.0;
    double memIssuePerCycle = 32.0;      //!< LD/ST issue slots
    /** @} */

    /** @{ Fixed overheads. */
    Tick kernelLaunchOverhead = microseconds(8);
    /** @} */

    /** @{ Async-copy (cp.async) modelling. */
    /** Extra control instructions per thread per tile (commit/wait). */
    double asyncCtrlPerThreadTile = 14.0;
    /** Extra integer (address) instructions per thread per tile. */
    double asyncIntPerThreadTile = 4.0;
    /** Bandwidth bonus of the register-file-bypassing copy path. */
    double asyncCopyBwBonus = 1.25;
    /** Shared-memory multiplier from double buffering. */
    double asyncSharedMemFactor = 2.0;
    /**
     * Multiplier on the per-warp wait cost, selecting the async API:
     * 1.0 models the CUDA Pipeline API; ~1.9 models Arrive/Wait
     * barriers, which Svedin et al. (and the paper, Section 3.2.1)
     * found slower.
     */
    double asyncWaitMultiplier = 1.0;
    /** @} */

    /** @{ UVM-resident overheads (page walks on the GPU side). */
    Bytes gpuPageBytes = kib(4);
    /** Cycles per GPU page walk on a GPU-TLB miss. */
    double pageWalkCycles = 400.0;
    /** Fraction of first-touch pages that miss the GPU TLB. */
    double tlbMissFraction = 0.2;
    /** @} */

    /** L1 capacity left by a given shared-memory carveout. */
    Bytes
    l1Capacity(Bytes sharedCarveout) const
    {
        if (sharedCarveout >= unifiedL1Bytes)
            return 0;
        return unifiedL1Bytes - sharedCarveout;
    }

    bool operator==(const GpuConfig &) const = default;
};

} // namespace uvmasync

#endif // UVMASYNC_GPU_GPU_CONFIG_HH
