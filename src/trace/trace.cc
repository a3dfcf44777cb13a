#include "trace/trace.hh"

#include <algorithm>

#include "common/logging.hh"

namespace uvmasync
{

const char *
traceCategoryName(TraceCategory c)
{
    switch (c) {
      case TraceCategory::Sim: return "sim";
      case TraceCategory::Pcie: return "pcie";
      case TraceCategory::Fault: return "fault";
      case TraceCategory::Migration: return "migration";
      case TraceCategory::Prefetch: return "prefetch";
      case TraceCategory::Kernel: return "kernel";
      case TraceCategory::Phase: return "phase";
      case TraceCategory::Inject: return "inject";
    }
    panic("unknown trace category %d", static_cast<int>(c));
}

const char *
traceNameStr(TraceName n)
{
    switch (n) {
      case TraceName::EventDispatch: return "event_dispatch";
      case TraceName::PageableCopy: return "pageable_copy";
      case TraceName::PinnedCopy: return "pinned_copy";
      case TraceName::DemandMigration: return "demand_migration";
      case TraceName::BulkPrefetch: return "bulk_prefetch";
      case TraceName::Writeback: return "writeback";
      case TraceName::FaultRaise: return "fault_raise";
      case TraceName::FaultBatch: return "fault_batch";
      case TraceName::Evict: return "evict";
      case TraceName::PrefetchIssue: return "prefetch_issue";
      case TraceName::PrefetchHit: return "prefetch_hit";
      case TraceName::PrefetchWaste: return "prefetch_waste";
      case TraceName::PrefetchChurn: return "prefetch_churn";
      case TraceName::KernelLaunch: return "kernel_launch";
      case TraceName::TileCompute: return "tile_compute";
      case TraceName::AsyncFill: return "async_fill";
      case TraceName::DoubleBufferWait: return "double_buffer_wait";
      case TraceName::DataStall: return "data_stall";
      case TraceName::PhaseAlloc: return "alloc";
      case TraceName::PhaseTransferIn: return "transfer_in";
      case TraceName::PhaseKernel: return "kernel";
      case TraceName::PhaseTransferOut: return "transfer_out";
      case TraceName::PhaseFree: return "free";
      case TraceName::InjectDegraded: return "inject_degraded";
      case TraceName::InjectRetry: return "inject_retry";
      case TraceName::InjectAbort: return "inject_abort";
      case TraceName::InjectBatchDelay: return "inject_batch_delay";
      case TraceName::InjectBatchOverflow:
        return "inject_batch_overflow";
      case TraceName::InjectBackpressure:
        return "inject_backpressure";
      case TraceName::InjectEvictStorm: return "inject_evict_storm";
      case TraceName::InjectSlowPage: return "inject_slow_page";
      case TraceName::InjectLaunchJitter:
        return "inject_launch_jitter";
      case TraceName::WatchdogTrip: return "watchdog_trip";
      case TraceName::JournalCommit: return "journal_commit";
    }
    panic("unknown trace name %d", static_cast<int>(n));
}

std::uint32_t
Tracer::lane(const std::string &name)
{
    // Linear scan: a job uses well under a dozen lanes and most
    // callers cache the id once per run.
    for (std::size_t i = 0; i < laneNames_.size(); ++i) {
        if (laneNames_[i] == name)
            return static_cast<std::uint32_t>(i);
    }
    laneNames_.push_back(name);
    return static_cast<std::uint32_t>(laneNames_.size() - 1);
}

void
Tracer::span(TraceCategory c, TraceName n, std::uint32_t lane,
             Tick start, Tick end, std::uint64_t arg,
             std::uint64_t arg2, std::string label)
{
    UVMASYNC_ASSERT(end >= start,
                    "trace span '%s' ends before it starts",
                    traceNameStr(n));
    UVMASYNC_ASSERT(lane < laneNames_.size(),
                    "trace span '%s' on unregistered lane %u",
                    traceNameStr(n), lane);
    if (!enabled(c) || start == end)
        return;
    events_.push_back(TraceEvent{start, end, arg, arg2, lane, c, n,
                                 std::move(label)});
}

void
Tracer::instant(TraceCategory c, TraceName n, std::uint32_t lane,
                Tick when, std::uint64_t arg, std::string label)
{
    UVMASYNC_ASSERT(lane < laneNames_.size(),
                    "trace instant '%s' on unregistered lane %u",
                    traceNameStr(n), lane);
    if (!enabled(c))
        return;
    events_.push_back(TraceEvent{when, when, arg, 0, lane, c, n,
                                 std::move(label)});
}

Tick
Tracer::wallEnd() const
{
    Tick latest = 0;
    for (const TraceEvent &ev : events_)
        latest = std::max(latest, ev.end);
    return latest;
}

void
Tracer::clear()
{
    events_.clear();
    laneNames_.clear();
}

} // namespace uvmasync
