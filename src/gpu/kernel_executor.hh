/**
 * @file
 * The GPU kernel timing and counter model.
 *
 * A kernel executes as waves of thread blocks over SM residency
 * slots. Each block loops over shared-memory tiles; per-tile time is
 * derived from the instruction mix, the memory system (L1 miss rates
 * from the cache model, L2/HBM bandwidth shares) and the configured
 * data-transfer mode:
 *
 *  - synchronous staging (standard/uvm*): tile load and compute
 *    serialise, loads pay the register-file staging penalty and a
 *    block-wide barrier per tile;
 *  - async memcpy: tile load and compute overlap (max instead of
 *    sum), the copy path bypasses the register file, but control
 *    instructions are added and shared memory is double-buffered
 *    (halving occupancy for shmem-limited kernels);
 *  - UVM modes additionally raise far faults through the
 *    MigrationEngine on first touch of non-resident chunks, stalling
 *    the issuing block, and pay GPU page-walk overhead.
 *
 * The model is throughput-analytic within a tile and event-ordered
 * across blocks/slots, which keeps GB-scale inputs simulable in
 * milliseconds while preserving the transfer/compute overlap that
 * the paper's results hinge on. Under UVM a block's chunk demand
 * comes from the launch's DemandMap (gpu/demand_map.hh), and the
 * event loop visits only the chunk groups that demand something: a
 * block jumps from one demanding group to the next, so the queue
 * holds one event per demanding group plus one per block finish,
 * not one per block and group. A block of a non-evicting launch
 * whose every chunk is a side-effect-free resident hit by its first
 * demanding group (MigrationEngine::quietHit) is quiet: it only
 * marks its chunks demanded at its start, and its finish goes into a
 * FIFO ring that merges with the queue in the queue's own order
 * (DESIGN.md section 4).
 */

#ifndef UVMASYNC_GPU_KERNEL_EXECUTOR_HH
#define UVMASYNC_GPU_KERNEL_EXECUTOR_HH

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"
#include "gpu/cache_model.hh"
#include "gpu/demand_map.hh"
#include "gpu/gpu_config.hh"
#include "gpu/instruction_mix.hh"
#include "gpu/kernel_descriptor.hh"
#include "gpu/occupancy.hh"
#include "gpu/transfer_mode.hh"
#include "trace/trace.hh"

namespace uvmasync
{

class Injector;
class MigrationEngine;

/** Execution-environment configuration for the kernel executor. */
struct KernelExecConfig
{
    GpuConfig gpu;
    TransferMode mode = TransferMode::Standard;

    /** L1/shared partition; 0 selects gpu.defaultSharedCarveout. */
    Bytes sharedCarveout = 0;

    /** Required for UVM modes; ignored otherwise. */
    MigrationEngine *uvm = nullptr;

    /** Job buffer sizes indexed by KernelBufferUse::bufferId. */
    std::vector<Bytes> bufferBytes;

    /** bufferId -> PageTable range id (UVM modes). */
    std::vector<std::size_t> bufferRangeIds;

    std::uint64_t seed = 1;

    /**
     * Optional, non-owning simulateL1 memo (static cost model only;
     * Device never sets it). Must have been built from this config's
     * gpu, bufferBytes, resolved carveout and seed.
     */
    L1Memo *l1Memo = nullptr;

    /** Upper bound of chunk-request groups per block (UVM modes). */
    std::uint32_t maxChunkGroupsPerBlock = 8;

    /**
     * Optional per-launch pipeline detail sink: launch overhead and
     * tile-compute spans, async fill span, double-buffer wait and
     * data-stall instants, all on @p traceLane.
     */
    Tracer *tracer = nullptr;
    std::uint32_t traceLane = 0;

    /** Optional fault injector: adds launch jitter when attached. */
    Injector *inject = nullptr;
};

/**
 * Closed-form launch estimate with all data device-resident — the
 * static-analysis view of a launch (analysis/cost_model.cc). Derived
 * from the same tile-timing derivation run() uses, so the estimate
 * and the simulation can only drift if run() itself changes.
 */
struct KernelStaticEstimate
{
    /** Launch wall time (overhead + waves x block time). */
    Tick launchPs = 0;

    double occupancy = 0.0;
    std::uint32_t blocksPerSm = 0;

    /** Wave-schedule geometry. */
    std::uint64_t waves = 0;
    Tick blockTimePs = 0;
};

/** Outcome of one kernel launch. */
struct KernelResult
{
    Tick startTick = 0;
    Tick endTick = 0;

    /** Wall time of the launch (including launch overhead). */
    Tick kernelTime() const { return endTick - startTick; }

    /** Aggregate data-wait time across blocks (UVM stalls). */
    Tick stallTime = 0;

    /** Dynamic instruction counts. */
    InstrMix instrs;

    /** L1 behaviour (Figure 10 metric). */
    double l1LoadMissRate = 0.0;
    double l1StoreMissRate = 0.0;

    /** Achieved occupancy and residency. */
    double occupancy = 0.0;
    std::uint32_t blocksPerSm = 0;

    /** Demand far faults raised during this launch. */
    std::uint64_t faults = 0;
};

/**
 * Executes kernels under one KernelExecConfig.
 */
class KernelExecutor
{
  public:
    explicit KernelExecutor(KernelExecConfig cfg);

    /**
     * Simulate one launch of @p kd starting at @p start.
     */
    KernelResult run(const KernelDescriptor &kd, Tick start);

    /**
     * Closed-form resident-data estimate of one launch of @p kd.
     * Usable without a MigrationEngine even in UVM modes (the
     * derivation never touches migration state), which is what lets
     * the static cost model price kernels it will never run.
     */
    KernelStaticEstimate estimateResident(const KernelDescriptor &kd);

  private:
    /** Per-launch derived quantities shared by the helpers. */
    struct Derived
    {
        OccupancyResult occ;
        /** Blocks actually resident per SM (grid may undersubscribe
         * the residency limit). */
        std::uint32_t residentBlocks = 1;
        std::uint32_t effWarpsPerSm = 1;
        Bytes carveout = 0;
        double tileScale = 1.0;
        std::uint64_t tilesPerBlock = 0;
        Bytes tileLoadBytes = 0;
        Bytes tileStoreBytes = 0;
        std::uint32_t activeSms = 0;
        double parallelEff = 1.0;
        double tileTimePs = 0.0;  //!< slot-view per-tile time
        double fillTimePs = 0.0;  //!< async pipeline fill per block
        /** Double-buffer arrive/wait share of tileTimePs (async). */
        double asyncWaitPerTilePs = 0.0;
        CacheModelResult cache;
        InstrMix perTile;
    };

    Derived derive(const KernelDescriptor &kd) const;

    /** Memoised derive(): repeated launches of the same kernel reuse
     * the cache simulation and timing derivation. */
    const Derived &derivedFor(const KernelDescriptor &kd);

    /** Average locality of the staged read buffers. */
    double stagedReadLocality(const KernelDescriptor &kd) const;

    /**
     * Issue block @p b's group-@p g chunk demands at time @p t, from
     * the block's spans (@p map's blockSpans()); returns the tick at
     * which the group's data is ready.
     */
    Tick requestGroup(const DemandMap &map,
                      std::span<const ChunkSpan> spans, std::uint64_t b,
                      std::uint64_t g, Tick t) const;

    KernelExecConfig cfg_;
    std::map<std::string, Derived> derivedCache_;
};

} // namespace uvmasync

#endif // UVMASYNC_GPU_KERNEL_EXECUTOR_HH
