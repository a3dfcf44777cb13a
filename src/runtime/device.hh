/**
 * @file
 * End-to-end job execution under one of the five transfer modes.
 *
 * The Device owns the simulated testbed (host memory, PCIe link,
 * device memory, page table, migration engine, allocator) and plays a
 * Job through the paper's pipeline: allocate -> move data in ->
 * launch kernels -> move results back -> free, with the data-movement
 * strategy selected by the TransferMode. It produces the paper's
 * time breakdown plus the performance counters of Section 4.2.
 */

#ifndef UVMASYNC_RUNTIME_DEVICE_HH
#define UVMASYNC_RUNTIME_DEVICE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "gpu/instruction_mix.hh"
#include "gpu/transfer_mode.hh"
#include "mem/device_memory.hh"
#include "mem/host_memory.hh"
#include "mem/page_table.hh"
#include "runtime/allocator.hh"
#include "runtime/job.hh"
#include "runtime/system_config.hh"
#include "runtime/time_breakdown.hh"
#include "runtime/timeline.hh"
#include "xfer/migration_engine.hh"
#include "xfer/pcie_link.hh"

namespace uvmasync
{

class Injector;

/** Hardware counters aggregated over one job (Section 4.2 metrics). */
struct RunCounters
{
    InstrMix instrs;
    std::uint64_t faults = 0;
    double l1LoadMissRate = 0.0;  //!< kernel-time-weighted
    double l1StoreMissRate = 0.0; //!< kernel-time-weighted
    double occupancy = 0.0;       //!< kernel-time-weighted
    Tick stallTime = 0;
    Bytes bytesH2d = 0;
    Bytes bytesD2h = 0;
    std::uint64_t launches = 0;
};

/**
 * Per-kernel profile accumulated across a job's launches — what
 * CUPTI / Nsight Compute would report per kernel name (the paper's
 * Section 4.2 methodology).
 */
struct KernelProfile
{
    std::string name;
    std::uint64_t launches = 0;
    Tick totalTime = 0;
    Tick stallTime = 0;
    InstrMix instrs;
    double l1LoadMissRate = 0.0;  //!< time-weighted
    double l1StoreMissRate = 0.0; //!< time-weighted
    double occupancy = 0.0;       //!< time-weighted
    std::uint64_t faults = 0;
};

/** One deterministic job execution (noise is applied separately). */
struct RunResult
{
    TimeBreakdown breakdown;
    RunCounters counters;

    /** Per-kernel profiles, in first-launch order. */
    std::vector<KernelProfile> kernelProfiles;

    /** Phase timeline on cpu/dma/gpu lanes (Figure 14-style view). */
    Timeline timeline;

    /** Wall-clock completion tick (components may overlap). */
    Tick wallEnd = 0;
};

/** Per-run options. */
struct RunOptions
{
    /** L1/shared partition override; 0 keeps the GPU default. */
    Bytes sharedCarveout = 0;

    /** Seed for the deterministic parts (cache sampling). */
    std::uint64_t seed = 1;

    /**
     * Allocate host buffers with cudaHostAlloc: explicit copies run
     * at the pinned-DMA rate instead of staging through bounce
     * buffers (an extension point beyond the paper's five setups —
     * its Section 2 discusses the pageable-staging cost).
     */
    bool pinnedHost = false;

    /**
     * Record spans/instants of every instrumented component into this
     * sink (owned by the caller); null runs untraced at zero cost.
     */
    Tracer *tracer = nullptr;

    /**
     * Fault injector for this run (owned by the caller); null — or an
     * injector whose plan is inert — leaves every seam untouched and
     * the run byte-identical to an uninjected one.
     */
    Injector *injector = nullptr;
};

/**
 * The simulated CPU-GPU system.
 */
class Device
{
  public:
    explicit Device(SystemConfig cfg);

    const SystemConfig &config() const { return cfg_; }

    /** Execute @p job under @p mode. Deterministic. */
    RunResult run(const Job &job, TransferMode mode,
                  const RunOptions &opts = {});

    /** @{ Component access (stats, tests). */
    HostMemory &hostMemory() { return host_; }
    MigrationEngine &migrationEngine() { return engine_; }
    /** @} */

    /** Snapshot all component statistics. */
    StatMap stats() const;

  private:
    SystemConfig cfg_;
    HostMemory host_;
    PageTable pageTable_;
    DeviceMemory devMem_;
    PcieLink link_;
    MigrationEngine engine_;
    Allocator allocator_;

    /**
     * Re-armed at the start of every run from cfg_.watchdog and fed
     * by the link and migration engine; a ceiling violation throws
     * PointTimeout out of run().
     */
    Watchdog watchdog_;
};

} // namespace uvmasync

#endif // UVMASYNC_RUNTIME_DEVICE_HH
