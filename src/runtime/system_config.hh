/**
 * @file
 * Whole-system configuration: the simulated equivalent of the paper's
 * Table 1 testbed (AMD EPYC 7742 host, 16x 64 GB DDR4, Nvidia A100
 * with 40 GB HBM2, PCIe 4.0 interconnect).
 */

#ifndef UVMASYNC_RUNTIME_SYSTEM_CONFIG_HH
#define UVMASYNC_RUNTIME_SYSTEM_CONFIG_HH

#include "common/types.hh"
#include "gpu/gpu_config.hh"
#include "mem/host_memory.hh"
#include "sim/watchdog.hh"
#include "xfer/migration_engine.hh"
#include "xfer/pcie_link.hh"

namespace uvmasync
{

/** Cost model of host-side allocation calls (Section 3.3's
 *  "data allocation time": cudaMalloc/cudaMallocManaged + cudaFree).
 */
struct AllocatorConfig
{
    /** One-time CUDA context initialisation on the first call. */
    Tick contextInit = milliseconds(190);

    /** @{ cudaMalloc / cudaFree (device memory). */
    Tick deviceAllocBase = microseconds(90);
    Tick deviceAllocPerGiB = milliseconds(5);
    Tick deviceFreeBase = microseconds(60);
    Tick deviceFreePerGiB = milliseconds(4);
    /** @} */

    /** @{ cudaMallocManaged / cudaFree (managed memory). Allocation
     * is lazy and cheap; freeing tears down migrated page state. */
    Tick managedAllocBase = microseconds(60);
    Tick managedAllocPerGiB = milliseconds(3);
    Tick managedFreeBase = microseconds(80);
    Tick managedFreePerGiB = milliseconds(6);
    /** @} */
};

/** Per-run measurement-noise parameters (Figures 4-6). */
struct NoiseConfig
{
    /** Multiplicative jitter (coefficient of variation) per part. */
    double allocCv = 0.015;
    double transferCv = 0.030;
    double kernelCv = 0.015;

    /** Additive OS/system overhead folded into the measurement. */
    Tick systemOverheadMean = milliseconds(9);
    double systemOverheadCv = 0.6;
};

/** Full testbed description. */
struct SystemConfig
{
    HostMemoryConfig host;
    GpuConfig gpu;
    PcieConfig pcie;
    UvmConfig uvm;
    AllocatorConfig alloc;
    NoiseConfig noise;

    /**
     * Runaway-run ceilings (simulated time, event count, livelock);
     * a trip fails only the offending point with a PointTimeout.
     */
    WatchdogConfig watchdog;

    /** Usable HBM capacity (Table 1: 40 GB). */
    Bytes deviceMemoryBytes = gib(40);

    /** The paper's testbed (default-constructed values). */
    static SystemConfig a100Epyc() { return SystemConfig{}; }
};

} // namespace uvmasync

#endif // UVMASYNC_RUNTIME_SYSTEM_CONFIG_HH
