/**
 * @file
 * UVM migration engine: the glue between the page table, the fault
 * handler, the prefetcher, device memory and the PCIe link.
 *
 * The engine is analytic/busy-until rather than callback-driven: a
 * caller asking for a chunk at time `now` receives the tick at which
 * the chunk's data is usable on the device. Usefulness of prefetches
 * is emergent — the engine migrates whatever the prefetcher predicts,
 * and a prediction pays off only if a later demand finds the chunk
 * already (or sooner) resident.
 */

#ifndef UVMASYNC_XFER_MIGRATION_ENGINE_HH
#define UVMASYNC_XFER_MIGRATION_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/device_memory.hh"
#include "mem/page_table.hh"
#include "sim/sim_object.hh"
#include "xfer/fault_handler.hh"
#include "xfer/pcie_link.hh"
#include "xfer/prefetcher.hh"

namespace uvmasync
{

/** Tunables of the UVM subsystem. */
struct UvmConfig
{
    /** Migration granularity (driver basic block). */
    Bytes chunkBytes = kib(256);

    /** Fault servicing parameters. */
    FaultHandlerConfig fault;

    /**
     * Driver-side speculative prefetcher used on demand misses (the
     * plain `uvm` configuration). None reproduces the paper's
     * fault-dominated `uvm` numbers; the ablation benches explore
     * Stream and Tree.
     */
    PrefetcherKind demandPrefetcher = PrefetcherKind::None;

    /** CPU overhead per cudaMemPrefetchAsync call. */
    Tick prefetchCallOverhead = microseconds(10);

    /**
     * Fraction of an already-resident range that a redundant
     * cudaMemPrefetchAsync re-migrates (dirty-page ping-pong between
     * consecutive kernels touching the same buffer; the `nw` effect).
     */
    double redundantPrefetchChurn = 0.05;
};

/**
 * Coordinates all data movement for managed allocations of one job.
 */
class MigrationEngine : public SimObject
{
  public:
    /**
     * @param name   stat name
     * @param cfg    UVM tunables
     * @param table  residency directory (shared with the device)
     * @param devMem HBM capacity/LRU tracking
     * @param link   CPU-GPU interconnect
     */
    MigrationEngine(std::string name, UvmConfig cfg, PageTable &table,
                    DeviceMemory &devMem, PcieLink &link);

    const UvmConfig &config() const { return cfg_; }

    /** Reset all residency and per-job accounting (new job). */
    void beginJob();

    /**
     * Demand access to a chunk at @p now.
     * @return tick at which the chunk is usable on the device.
     */
    Tick requestChunk(std::size_t rangeId, std::uint64_t chunk, Tick now);

    /**
     * Whether this job tracks LRU order (so it can evict). Fixed for
     * the job by beginJob().
     */
    bool lruTracked() const { return devMem_.lruTracking(); }

    /**
     * True when every requestChunk() of the chunk at a tick >= @p by
     * would be a resident hit that returns its own tick and changes
     * nothing but the chunk's demanded mark, provided the job has no
     * LRU tracking (!lruTracked(): no eviction can happen, so the
     * chunk stays resident with its ready tick; callers test that
     * once): the chunk is resident and ready by @p by, and it is not
     * a speculative prefetch awaiting its first demand (that demand
     * counts the prefetch useful). Inline: the executor's quiet
     * check asks it for every chunk of a block.
     */
    bool
    quietHit(std::size_t rangeId, std::uint64_t chunk, Tick by) const
    {
        if (rangeId >= rangeState_.size())
            return false;
        // readyAt is maxTick exactly while the chunk is not resident.
        const RangeState &state = rangeState_[rangeId];
        return state.readyAt[chunk] <= by &&
               !(state.prefetched[chunk] && !state.demanded[chunk]);
    }

    /** The one effect of requesting a quietHit() chunk. */
    void
    markDemanded(std::size_t rangeId, std::uint64_t chunk)
    {
        rangeState_[rangeId].demanded[chunk] = true;
    }

    /**
     * Bulk cudaMemPrefetchAsync of a whole range issued at @p now.
     *
     * @param churnOk whether a redundant prefetch of already-resident
     *        data re-migrates dirty pages (true for the harness's
     *        per-launch re-prefetch; false for the initial prefetch
     *        of device-populated buffers)
     * @return the window occupied on the link (end == data ready).
     */
    Occupancy prefetchRange(std::size_t rangeId, Tick now,
                            bool churnOk = false);

    /**
     * First-touch population on the device: managed pages never
     * written by the host come into existence in GPU memory with no
     * transfer (outputs and scratch buffers).
     */
    void populateOnDevice(std::size_t rangeId);

    /**
     * Mark every device-resident chunk of a range dirty (a kernel
     * wrote the buffer; block-level execution does not track
     * individual stores).
     */
    void markRangeDirty(std::size_t rangeId);

    /**
     * Migrate all dirty chunks of a range back to the host (CPU
     * consuming results after the kernel). @return completion tick.
     */
    Tick writebackDirty(std::size_t rangeId, Tick now);

    /**
     * O(ranges) check that every registered range is fully resident
     * (steady state of iterative kernels; lets the executor skip
     * per-chunk requests entirely).
     */
    bool allRangesResident() const;

    /** Latest data-ready tick across all migrations so far. */
    Tick latestReadyTick() const { return latestReady_; }

    /**
     * Route the fault/migration/prefetch lifecycle into @p tracer:
     * fault raises (instants) and batch-service spans on
     * @p faultLane, speculation issue/hit/waste/churn instants on
     * @p prefetchLane, eviction instants on @p migrateLane. Call
     * flushTrace() at end of run to close the final fault batch.
     * Pass nullptr to detach.
     */
    void setTrace(Tracer *tracer, std::uint32_t faultLane = 0,
                  std::uint32_t prefetchLane = 0,
                  std::uint32_t migrateLane = 0);

    /** Emit spans still buffered in sub-components (end of run). */
    void flushTrace();

    /**
     * Attach the fault injector (null detaches): driver backpressure
     * stalls and eviction storms on migrations here, plus the
     * fault-batch perturbations forwarded to the FaultHandler.
     * Storms force LRU tracking on for the job (beginJob).
     */
    void setInjector(Injector *inject);

    /**
     * Report every eviction to @p watchdog (null detaches). Clean
     * evictions free memory without advancing simulated time, which
     * is exactly the shape of an eviction-storm livelock — the
     * watchdog's stall detector is the only bound on it.
     */
    void setWatchdog(Watchdog *watchdog) { watchdog_ = watchdog; }

    /**
     * Total link time consumed on behalf of this job so far
     * (demand + prefetch + writeback + wasted speculation).
     */
    Tick jobTransferBusy() const { return jobTransferBusy_; }

    /** Demand faults raised this job. */
    std::uint64_t jobFaults() const { return jobFaults_; }

    /** Prefetched-but-never-demanded chunks this job. */
    std::uint64_t unusedPrefetches() const;

    const Prefetcher &prefetcher() const { return prefetcher_; }

    void exportStats(StatMap &out) const override;

  private:
    /** Per-chunk engine-side tracking parallel to ManagedRange. */
    struct RangeState
    {
        std::vector<Tick> readyAt;      //!< maxTick while not resident
        std::vector<bool> prefetched;   //!< arrived speculatively
        std::vector<bool> demanded;     //!< touched by a demand access
        std::uint64_t outstandingPrefetches = 0;
        std::uint64_t residentChunks = 0;
    };

    /** (Re)build engine state mirrors for the page table's ranges. */
    void syncRanges();

    /** Make room for @p bytes, evicting (and writing back) LRU chunks. */
    Tick ensureCapacity(Bytes bytes, Tick now);

    /** Evict one LRU victim (with dirty writeback) at @p freeAt. */
    Tick evictOne(Tick freeAt);

    /** Issue one chunk migration on the link; updates all state. */
    Tick migrateChunk(std::size_t rangeId, std::uint64_t chunk, Tick when,
                      TransferKind kind, bool speculative);

    UvmConfig cfg_;
    PageTable &table_;
    DeviceMemory &devMem_;
    PcieLink &link_;
    FaultHandler faultHandler_;
    Prefetcher prefetcher_;

    /** A demand miss's prefetch candidates; never shrinks across
     * faults. */
    std::vector<PrefetchCandidate> candidateBuf_;

    std::vector<RangeState> rangeState_;
    Tick jobTransferBusy_ = 0;
    Tick latestReady_ = 0;
    std::uint64_t jobFaults_ = 0;

    Tracer *tracer_ = nullptr;
    std::uint32_t faultLane_ = 0;
    std::uint32_t prefetchLane_ = 0;
    std::uint32_t migrateLane_ = 0;
    Injector *inject_ = nullptr;
    Watchdog *watchdog_ = nullptr;
};

} // namespace uvmasync

#endif // UVMASYNC_XFER_MIGRATION_ENGINE_HH
