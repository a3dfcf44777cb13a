#include "xfer/pcie_link.hh"

#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "inject/injector.hh"
#include "mem/host_memory.hh"
#include "sim/watchdog.hh"

namespace uvmasync
{

const char *
transferKindName(TransferKind k)
{
    switch (k) {
      case TransferKind::PageableCopy: return "pageable_copy";
      case TransferKind::PinnedCopy: return "pinned_copy";
      case TransferKind::DemandMigration: return "demand_migration";
      case TransferKind::BulkPrefetch: return "bulk_prefetch";
      case TransferKind::Writeback: return "writeback";
    }
    panic("unknown transfer kind %d", static_cast<int>(k));
}

PcieLink::PcieLink(std::string name, PcieConfig cfg)
    : SimObject(std::move(name)), cfg_(cfg),
      h2d_(this->name() + ".h2d", cfg.rawBandwidth),
      d2h_(this->name() + ".d2h", cfg.rawBandwidth)
{
}

Occupancy
PcieLink::transfer(Tick now, Bytes bytes, Direction dir,
                   TransferKind kind, double hostFactor)
{
    // Injected transient failures delay the issue tick (retry with
    // exponential backoff) or throw TransferAborted when the budget
    // runs out; rolled before anything else so the slow-page and
    // degradation windows see the tick the transfer actually issues.
    if (inject_) {
        now = inject_->applyTransferFaults(now, bytes,
                                           transferKindName(kind));
    }
    // Host-DIMM slow-page windows slow the host side of the path the
    // same way DRAM placement effects do.
    if (hostPath_)
        hostFactor *= hostPath_->transferPathFactor(now);
    UVMASYNC_ASSERT(hostFactor > 0.0 && hostFactor <= 1.0,
                    "host factor %f out of (0, 1]", hostFactor);
    double eff = cfg_.efficiency[static_cast<std::size_t>(kind)];
    UVMASYNC_ASSERT(eff > 0.0 && eff <= 1.0,
                    "efficiency %f out of (0, 1] for %s", eff,
                    transferKindName(kind));
    // Model reduced effective bandwidth by scaling the time (i.e. the
    // bytes pushed through the raw-rate resource); the per-kind setup
    // latency is folded in as equivalent bytes.
    double scale = 1.0 / (eff * hostFactor);
    // Link degradation/stutter windows: sampled at issue time, so a
    // transfer keeps the mode the link was in when it queued.
    double degrade = inject_ ? inject_->degradeFactor(now) : 1.0;
    scale *= degrade;
    Tick latency =
        cfg_.perTransferLatency[static_cast<std::size_t>(kind)];
    double latencyBytes = static_cast<double>(latency) *
                          cfg_.rawBandwidth.bytesPerSecond() / 1e12;
    auto scaled = static_cast<Bytes>(
        std::ceil(static_cast<double>(bytes) * scale + latencyBytes));

    kindBytes_[static_cast<std::size_t>(kind)] += bytes;
    const bool h2d = dir == Direction::HostToDevice;
    (h2d ? payloadH2d_ : payloadD2h_) += bytes;
    Occupancy occ = (h2d ? h2d_ : d2h_).acquire(now, scaled);
    if (tracer_) {
        // TraceName's Pcie block mirrors TransferKind order, so the
        // name is a constant offset from the kind.
        auto name = static_cast<TraceName>(
            static_cast<int>(TraceName::PageableCopy) +
            static_cast<int>(kind));
        tracer_->span(TraceCategory::Pcie, name,
                      h2d ? h2dLane_ : d2hLane_, occ.start, occ.end,
                      bytes, occ.start - now);
    }
    if (inject_ && degrade > 1.0)
        inject_->noteDegradedTransfer(occ.start, occ.end, degrade, h2d);
    if (watchdog_)
        watchdog_->onEvent(occ.end);
    return occ;
}

Bytes
PcieLink::bytesMoved(Direction dir) const
{
    return dir == Direction::HostToDevice ? payloadH2d_ : payloadD2h_;
}

void
PcieLink::reset()
{
    h2d_.reset();
    d2h_.reset();
    kindBytes_.fill(0);
    payloadH2d_ = 0;
    payloadD2h_ = 0;
}

void
PcieLink::exportStats(StatMap &out) const
{
    putStat(out, "bytes_h2d", static_cast<double>(payloadH2d_));
    putStat(out, "bytes_d2h", static_cast<double>(payloadD2h_));
    putStat(out, "busy_h2d_ps", static_cast<double>(h2d_.busyTime()));
    putStat(out, "busy_d2h_ps", static_cast<double>(d2h_.busyTime()));
    for (std::size_t k = 0; k < numTransferKinds; ++k) {
        putStat(out,
                std::string("bytes_") +
                    transferKindName(static_cast<TransferKind>(k)),
                static_cast<double>(kindBytes_[k]));
    }
}

} // namespace uvmasync
