/**
 * @file
 * The CPU<->GPU interconnect (stage U1 of the paper's pipeline).
 *
 * Real systems see very different effective PCIe bandwidth depending
 * on how a transfer is issued: pageable cudaMemcpy stages through a
 * pinned bounce buffer, demand-paged UVM migration pays per-fault
 * driver work, and bulk cudaMemPrefetchAsync approaches line rate.
 * The link model charges a per-kind efficiency on a shared
 * full-duplex pair of bandwidth resources; this asymmetry is the root
 * cause of the paper's "uvm_prefetch saves 45-64% of transfer time"
 * results.
 */

#ifndef UVMASYNC_XFER_PCIE_LINK_HH
#define UVMASYNC_XFER_PCIE_LINK_HH

#include <array>
#include <string>

#include "common/types.hh"
#include "common/units.hh"
#include "sim/resource.hh"
#include "sim/sim_object.hh"
#include "trace/trace.hh"

namespace uvmasync
{

class HostMemory;
class Injector;
class Watchdog;

/** Transfer direction over the link. */
enum class Direction
{
    HostToDevice,
    DeviceToHost,
};

/** How the transfer is issued; selects the efficiency factor. */
enum class TransferKind
{
    PageableCopy,    //!< cudaMemcpy from malloc'd host memory
    PinnedCopy,      //!< cudaMemcpy from cudaHostAlloc'd memory
    DemandMigration, //!< UVM far-fault-driven page migration
    BulkPrefetch,    //!< cudaMemPrefetchAsync bulk migration
    Writeback,       //!< UVM device->host eviction/writeback
};

constexpr std::size_t numTransferKinds = 5;

/** Human-readable kind name. */
const char *transferKindName(TransferKind k);

/** Configuration of the link. */
struct PcieConfig
{
    /** Raw per-direction bandwidth (PCIe 4.0 x16). */
    Bandwidth rawBandwidth = Bandwidth::fromGBps(26.0);

    /**
     * Effective-bandwidth factor per TransferKind. DemandMigration is
     * deliberately high: profilers (and the paper) report only the
     * DMA busy time of each migration, which runs near line rate —
     * the fault-servicing gaps surface as kernel stalls instead.
     */
    std::array<double, numTransferKinds> efficiency = {
        0.45, // PageableCopy: staged through pinned bounce buffers
        0.88, // PinnedCopy
        0.55, // DemandMigration: DMA busy time of chunk migrations
        0.82, // BulkPrefetch
        0.80, // Writeback
    };

    /** Fixed setup latency charged per transfer, by kind. */
    std::array<Tick, numTransferKinds> perTransferLatency = {
        microseconds(25), // PageableCopy: per-cudaMemcpy staging setup
        microseconds(8),  // PinnedCopy
        nanoseconds(800), // DemandMigration: per-chunk DMA descriptor
        microseconds(10), // BulkPrefetch
        microseconds(5),  // Writeback
    };
};

/**
 * Full-duplex CPU-GPU link with per-kind efficiency and accounting.
 */
class PcieLink : public SimObject
{
  public:
    PcieLink(std::string name, PcieConfig cfg);

    /**
     * Reserve the link for a transfer of @p bytes issued at @p now.
     *
     * @param hostFactor additional host-path multiplier in (0, 1]
     *        (DRAM placement effects); 1.0 means unimpeded.
     * @return the occupied window on the direction's resource.
     */
    Occupancy transfer(Tick now, Bytes bytes, Direction dir,
                       TransferKind kind, double hostFactor = 1.0);

    /** Total bytes moved in @p dir (payload, not efficiency-scaled). */
    Bytes bytesMoved(Direction dir) const;

    /** Drop the timeline and statistics (new run). */
    void reset();

    /**
     * Record every occupancy window into @p tracer: one span per
     * transfer on the direction's lane, bytes in arg and the FCFS
     * queueing delay (start - issue tick) in arg2. Pass nullptr to
     * detach.
     */
    void
    setTrace(Tracer *tracer, std::uint32_t h2dLane = 0,
             std::uint32_t d2hLane = 0)
    {
        tracer_ = tracer;
        h2dLane_ = h2dLane;
        d2hLane_ = d2hLane;
    }

    /**
     * Attach the fault injector (null detaches): transient failures
     * with retry/backoff before the transfer issues, and bandwidth
     * degradation/stutter windows while it runs. A transfer that
     * exhausts its retry budget throws TransferAborted.
     */
    void setInjector(Injector *inject) { inject_ = inject; }

    /**
     * Attach the host-memory model so host-DIMM slow-page windows
     * (injected or otherwise) scale the host path of every transfer.
     */
    void setHostPath(HostMemory *host) { hostPath_ = host; }

    /**
     * Report every modelled transfer completion to @p watchdog, so a
     * run whose transfer count explodes (an injected eviction storm
     * thrashing the same chunks forever) trips the event ceiling
     * instead of running unbounded. Pass nullptr to detach.
     */
    void setWatchdog(Watchdog *watchdog) { watchdog_ = watchdog; }

    void exportStats(StatMap &out) const override;

  private:
    PcieConfig cfg_;
    BandwidthResource h2d_;
    BandwidthResource d2h_;
    std::array<Bytes, numTransferKinds> kindBytes_{};
    Bytes payloadH2d_ = 0;
    Bytes payloadD2h_ = 0;
    Tracer *tracer_ = nullptr;
    std::uint32_t h2dLane_ = 0;
    std::uint32_t d2hLane_ = 0;
    Injector *inject_ = nullptr;
    HostMemory *hostPath_ = nullptr;
    Watchdog *watchdog_ = nullptr;
};

} // namespace uvmasync

#endif // UVMASYNC_XFER_PCIE_LINK_HH
