/**
 * @file
 * Span/counter tracer for the simulator's hot layers.
 *
 * Every instrumented component (PCIe link, fault handler, migration
 * engine, kernel executor, device phases, watchdog) records
 * into one per-job Tracer through a raw pointer that is null when
 * tracing is off — the hook is a single predictable branch, so a
 * disabled trace costs nothing measurable. Events carry *stable*
 * category and name ids (the enum ordinals below are frozen; append
 * only), which keeps exported traces and golden files comparable
 * across builds.
 *
 * Two event shapes exist:
 *  - spans: a [start, end) window on a lane. Spans on one lane must
 *    be recorded in non-decreasing start order and nest properly
 *    (trace_check.hh verifies both); zero-length spans are dropped.
 *  - instants: a single tick. Instants are exempt from the ordering
 *    and nesting rules (fault raises can land inside a prior batch's
 *    service window).
 *
 * A lane is a time-shared resource or execution track ("pcie.h2d",
 * "gpu", ...); lanes are created on first use and identified by a
 * dense index, so recording never hashes or allocates per event
 * beyond the event vector itself.
 */

#ifndef UVMASYNC_TRACE_TRACE_HH
#define UVMASYNC_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace uvmasync
{

/** Event category; frozen ordinals (append only). */
enum class TraceCategory : std::uint8_t
{
    Sim = 0,       //!< simulation kernel (watchdog trips)
    Pcie = 1,      //!< link occupancy windows
    Fault = 2,     //!< far-fault raise / batch servicing
    Migration = 3, //!< eviction and residency churn
    Prefetch = 4,  //!< speculation issue / hit / waste
    Kernel = 5,    //!< tile pipeline detail inside a launch
    Phase = 6,     //!< job phases (the Timeline lanes)
    Inject = 7,    //!< fault-injection perturbations
};

inline constexpr std::size_t numTraceCategories = 8;

/** Stable category slug ("pcie", "fault", ...). */
const char *traceCategoryName(TraceCategory c);

/** Bitmask with only @p c enabled. */
constexpr std::uint32_t
traceCategoryBit(TraceCategory c)
{
    return 1u << static_cast<std::uint32_t>(c);
}

/** All categories enabled. */
inline constexpr std::uint32_t traceAllCategories = 0xffffffffu;

/**
 * Stable span/instant name ids; frozen ordinals (append only). The
 * Pcie block mirrors TransferKind order so the mapping is a constant
 * offset.
 */
enum class TraceName : std::uint16_t
{
    // Sim (EventDispatch has no emitter; its ordinal stays reserved)
    EventDispatch = 0,
    // Pcie (order == TransferKind)
    PageableCopy = 10,
    PinnedCopy = 11,
    DemandMigration = 12,
    BulkPrefetch = 13,
    Writeback = 14,
    // Fault
    FaultRaise = 20,
    FaultBatch = 21,
    // Migration
    Evict = 30,
    // Prefetch
    PrefetchIssue = 40,
    PrefetchHit = 41,
    PrefetchWaste = 42,
    PrefetchChurn = 43,
    // Kernel
    KernelLaunch = 50,
    TileCompute = 51,
    AsyncFill = 52,
    DoubleBufferWait = 53,
    DataStall = 54,
    // Phase (order == PhaseKind)
    PhaseAlloc = 60,
    PhaseTransferIn = 61,
    PhaseKernel = 62,
    PhaseTransferOut = 63,
    PhaseFree = 64,
    // Inject
    InjectDegraded = 70,
    InjectRetry = 71,
    InjectAbort = 72,
    InjectBatchDelay = 73,
    InjectBatchOverflow = 74,
    InjectBackpressure = 75,
    InjectEvictStorm = 76,
    InjectSlowPage = 77,
    InjectLaunchJitter = 78,
    // Robustness (watchdog trips, journal commits)
    WatchdogTrip = 80,
    JournalCommit = 81,
};

/** Stable name slug ("fault_batch", "tile_compute", ...). */
const char *traceNameStr(TraceName n);

/** One recorded span or instant. */
struct TraceEvent
{
    Tick start = 0;
    Tick end = 0;           //!< == start for instants
    std::uint64_t arg = 0;  //!< payload (bytes, batch size, ps, ...)
    std::uint64_t arg2 = 0; //!< secondary payload (queue wait, ...)
    std::uint32_t lane = 0;
    TraceCategory category = TraceCategory::Sim;
    TraceName name = TraceName::EventDispatch;
    std::string label; //!< optional free-form detail ("h2d x")

    bool isInstant() const { return start == end; }
    Tick duration() const { return end - start; }
};

/**
 * Deterministic in-memory event collector. One Tracer belongs to one
 * job execution (never shared across threads); the parallel engine
 * gives every point its own Tracer and merges results in submission
 * order, so a traced `--jobs N` run stays byte-identical to serial.
 */
class Tracer
{
  public:
    Tracer() = default;

    /** Record only categories whose bit is set in @p mask. */
    void setCategoryFilter(std::uint32_t mask) { filter_ = mask; }

    bool
    enabled(TraceCategory c) const
    {
        return (filter_ & traceCategoryBit(c)) != 0;
    }

    /** Dense id of lane @p name, creating it on first use. */
    std::uint32_t lane(const std::string &name);

    const std::vector<std::string> &laneNames() const
    {
        return laneNames_;
    }
    std::size_t laneCount() const { return laneNames_.size(); }

    /**
     * Record a [start, end) span. Zero-length spans are dropped —
     * they carry no occupancy; callers that care about the *moment*
     * should record an instant instead (the Timeline exporter does).
     */
    void span(TraceCategory c, TraceName n, std::uint32_t lane,
              Tick start, Tick end, std::uint64_t arg = 0,
              std::uint64_t arg2 = 0, std::string label = {});

    /** Record a point event at @p when. */
    void instant(TraceCategory c, TraceName n, std::uint32_t lane,
                 Tick when, std::uint64_t arg = 0,
                 std::string label = {});

    const std::vector<TraceEvent> &events() const { return events_; }
    bool empty() const { return events_.empty(); }

    /** Latest end tick across all events (0 when empty). */
    Tick wallEnd() const;

    /** Drop all events and lanes. */
    void clear();

  private:
    std::vector<TraceEvent> events_;
    std::vector<std::string> laneNames_;
    std::uint32_t filter_ = traceAllCategories;
};

} // namespace uvmasync

#endif // UVMASYNC_TRACE_TRACE_HH
