#include "xfer/migration_engine.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "inject/injector.hh"
#include "sim/watchdog.hh"

namespace uvmasync
{

MigrationEngine::MigrationEngine(std::string name, UvmConfig cfg,
                                 PageTable &table, DeviceMemory &devMem,
                                 PcieLink &link)
    : SimObject(std::move(name)), cfg_(cfg), table_(table),
      devMem_(devMem), link_(link),
      faultHandler_(this->name() + ".faults", cfg.fault),
      prefetcher_(this->name() + ".prefetcher", cfg.demandPrefetcher)
{
}

void
MigrationEngine::beginJob()
{
    for (std::size_t r = 0; r < table_.rangeCount(); ++r)
        table_.range(r).reset();
    devMem_.clear();
    // Precise LRU bookkeeping only matters when the working set can
    // oversubscribe the device — or when injected eviction storms
    // need victims to thrash regardless of occupancy.
    Bytes managed = 0;
    for (std::size_t r = 0; r < table_.rangeCount(); ++r)
        managed += table_.range(r).bytes();
    devMem_.setLruTracking(managed > devMem_.capacity() * 9 / 10 ||
                           (inject_ && inject_->stormsEnabled()));
    faultHandler_.reset();
    prefetcher_.resetStats();
    rangeState_.clear();
    syncRanges();
    jobTransferBusy_ = 0;
    latestReady_ = 0;
    jobFaults_ = 0;
}

void
MigrationEngine::setTrace(Tracer *tracer, std::uint32_t faultLane,
                          std::uint32_t prefetchLane,
                          std::uint32_t migrateLane)
{
    tracer_ = tracer;
    faultLane_ = faultLane;
    prefetchLane_ = prefetchLane;
    migrateLane_ = migrateLane;
    faultHandler_.setTrace(tracer, faultLane);
}

void
MigrationEngine::flushTrace()
{
    faultHandler_.flushTrace();
}

void
MigrationEngine::setInjector(Injector *inject)
{
    inject_ = inject;
    faultHandler_.setInjector(inject);
}

void
MigrationEngine::syncRanges()
{
    while (rangeState_.size() < table_.rangeCount()) {
        const ManagedRange &range = table_.range(rangeState_.size());
        RangeState state;
        state.readyAt.assign(range.chunkCount(), maxTick);
        state.prefetched.assign(range.chunkCount(), false);
        state.demanded.assign(range.chunkCount(), false);
        devMem_.reserveRange(rangeState_.size(), range.chunkCount(),
                             range.chunkBytes());
        rangeState_.push_back(std::move(state));
    }
}

Tick
MigrationEngine::evictOne(Tick freeAt)
{
    ResidentChunk victim = devMem_.evictVictim();
    ManagedRange &range = table_.range(victim.rangeId);
    RangeState &state = rangeState_[victim.rangeId];
    if (range.dirty(victim.chunkIndex)) {
        Occupancy occ = link_.transfer(freeAt, victim.bytes,
                                       Direction::DeviceToHost,
                                       TransferKind::Writeback);
        jobTransferBusy_ += occ.duration();
        table_.recordMigration(false, victim.bytes);
        freeAt = std::max(freeAt, occ.end);
        range.setDirty(victim.chunkIndex, false);
    }
    if (state.prefetched[victim.chunkIndex] &&
        !state.demanded[victim.chunkIndex]) {
        prefetcher_.noteWasted(victim.rangeId);
        if (state.outstandingPrefetches > 0)
            --state.outstandingPrefetches;
        if (tracer_) {
            tracer_->instant(TraceCategory::Prefetch,
                             TraceName::PrefetchWaste,
                             prefetchLane_, freeAt,
                             victim.rangeId);
        }
    }
    if (tracer_) {
        tracer_->instant(TraceCategory::Migration, TraceName::Evict,
                         migrateLane_, freeAt, victim.bytes);
    }
    range.setState(victim.chunkIndex, ChunkState::HostOnly);
    state.readyAt[victim.chunkIndex] = maxTick;
    state.prefetched[victim.chunkIndex] = false;
    UVMASYNC_ASSERT(state.residentChunks > 0,
                    "resident chunk accounting underflow");
    --state.residentChunks;
    // Clean evictions cost no simulated time, so a storm of them is
    // invisible to every time-based bound; report each one so the
    // watchdog's stall detector can see the livelock.
    if (watchdog_)
        watchdog_->onEvent(freeAt);
    return freeAt;
}

Tick
MigrationEngine::ensureCapacity(Bytes bytes, Tick now)
{
    Tick freeAt = now;
    while (!devMem_.fits(bytes))
        freeAt = evictOne(freeAt);
    return freeAt;
}

Tick
MigrationEngine::migrateChunk(std::size_t rangeId, std::uint64_t chunk,
                              Tick when, TransferKind kind,
                              bool speculative)
{
    ManagedRange &range = table_.range(rangeId);
    RangeState &state = rangeState_[rangeId];
    Bytes bytes = range.chunkSize(chunk);

    if (inject_) {
        // Driver backpressure: the migration queue throttles this
        // request before it reaches the link.
        when += inject_->migrationBackpressure(when);
        // Eviction storm: the driver thrashes resident chunks out
        // first; their writebacks delay this migration, and the
        // thrashed chunks must be re-migrated on their next touch.
        std::uint32_t storm = inject_->drawEvictionStorm();
        if (storm > 0) {
            Tick stormFreeAt = when;
            std::uint32_t evicted = 0;
            while (evicted < storm && devMem_.lruTracking() &&
                   devMem_.residentBytes() > 0) {
                stormFreeAt = evictOne(stormFreeAt);
                ++evicted;
            }
            if (evicted > 0) {
                when = std::max(when, stormFreeAt);
                inject_->noteEvictionStorm(when, evicted);
            }
        }
    }

    Tick start = ensureCapacity(bytes, when);
    Occupancy occ = link_.transfer(start, bytes,
                                   Direction::HostToDevice, kind);
    jobTransferBusy_ += occ.duration();
    table_.recordMigration(true, bytes);

    range.setState(chunk, ChunkState::DeviceResident);
    state.readyAt[chunk] = occ.end;
    state.prefetched[chunk] = speculative;
    if (speculative)
        ++state.outstandingPrefetches;
    ++state.residentChunks;
    latestReady_ = std::max(latestReady_, occ.end);
    devMem_.insert(ResidentChunk{rangeId, chunk, bytes});
    return occ.end;
}

Tick
MigrationEngine::requestChunk(std::size_t rangeId, std::uint64_t chunk,
                              Tick now)
{
    syncRanges();
    UVMASYNC_ASSERT(rangeId < rangeState_.size(),
                    "request on unknown range %zu", rangeId);
    ManagedRange &range = table_.range(rangeId);
    RangeState &state = rangeState_[rangeId];
    UVMASYNC_ASSERT(chunk < range.chunkCount(),
                    "%s: chunk %llu out of range", range.name().c_str(),
                    static_cast<unsigned long long>(chunk));

    if (range.state(chunk) == ChunkState::DeviceResident) {
        devMem_.touch(rangeId, chunk);
        Tick ready = state.readyAt[chunk];
        if (!state.demanded[chunk] && state.prefetched[chunk]) {
            prefetcher_.noteUseful(rangeId);
            if (state.outstandingPrefetches > 0)
                --state.outstandingPrefetches;
            if (tracer_) {
                tracer_->instant(TraceCategory::Prefetch,
                                 TraceName::PrefetchHit, prefetchLane_,
                                 now, rangeId);
            }
        }
        state.demanded[chunk] = true;
        return std::max(now, ready);
    }

    // Far fault: driver batching, then migration over the link.
    table_.recordFault();
    ++jobFaults_;
    if (tracer_) {
        tracer_->instant(TraceCategory::Fault, TraceName::FaultRaise,
                         faultLane_, now, rangeId);
    }
    if (state.outstandingPrefetches > 0) {
        // The speculation failed to cover this demand; cool down.
        prefetcher_.noteWasted(rangeId);
        --state.outstandingPrefetches;
        if (tracer_) {
            tracer_->instant(TraceCategory::Prefetch,
                             TraceName::PrefetchWaste, prefetchLane_,
                             now, rangeId);
        }
    }
    Tick serviced = faultHandler_.service(now);
    Tick ready = migrateChunk(rangeId, chunk, serviced,
                              TransferKind::DemandMigration,
                              /*speculative=*/false);
    state.demanded[chunk] = true;

    // Let the driver prefetcher ride along on the fault. Index loop:
    // nothing downstream of a candidate migration (evictOne's waste
    // feedback included) appends to candidateBuf_, but an index keeps
    // that independent of any future reallocation.
    candidateBuf_.clear();
    prefetcher_.appendCandidates(rangeId, chunk, range.chunkCount(),
                                 candidateBuf_);
    for (std::size_t i = 0; i < candidateBuf_.size(); ++i) {
        const PrefetchCandidate &cand = candidateBuf_[i];
        ManagedRange &crange = table_.range(cand.rangeId);
        if (crange.state(cand.chunkIndex) == ChunkState::DeviceResident)
            continue;
        migrateChunk(cand.rangeId, cand.chunkIndex, ready,
                     TransferKind::DemandMigration,
                     /*speculative=*/true);
        if (tracer_) {
            tracer_->instant(TraceCategory::Prefetch,
                             TraceName::PrefetchIssue, prefetchLane_,
                             ready, /*chunks=*/1);
        }
    }
    return ready;
}

void
MigrationEngine::populateOnDevice(std::size_t rangeId)
{
    syncRanges();
    UVMASYNC_ASSERT(rangeId < rangeState_.size(),
                    "populate on unknown range %zu", rangeId);
    ManagedRange &range = table_.range(rangeId);
    RangeState &state = rangeState_[rangeId];
    for (std::uint64_t c = 0; c < range.chunkCount(); ++c) {
        if (range.state(c) == ChunkState::DeviceResident)
            continue;
        // An oversubscribing allocation only materialises up to the
        // device capacity; the rest stays host-side and will be
        // demand-migrated (with eviction) on first GPU touch.
        if (!devMem_.fits(range.chunkSize(c)))
            break;
        range.setState(c, ChunkState::DeviceResident);
        state.readyAt[c] = 0;
        ++state.residentChunks;
        devMem_.insert(ResidentChunk{rangeId, c, range.chunkSize(c)});
    }
}

Occupancy
MigrationEngine::prefetchRange(std::size_t rangeId, Tick now,
                               bool churnOk)
{
    syncRanges();
    UVMASYNC_ASSERT(rangeId < rangeState_.size(),
                    "prefetch on unknown range %zu", rangeId);
    ManagedRange &range = table_.range(rangeId);
    RangeState &state = rangeState_[rangeId];

    Tick start = now + cfg_.prefetchCallOverhead;

    // Gather the bytes that actually need to move.
    Bytes pending = 0;
    for (std::uint64_t c = 0; c < range.chunkCount(); ++c) {
        if (range.state(c) != ChunkState::DeviceResident)
            pending += range.chunkSize(c);
    }

    if (pending == 0) {
        // Redundant prefetch: the driver still revalidates mappings
        // and re-migrates recently dirtied pages (consecutive kernels
        // sharing a buffer — the `nw` effect).
        auto churn = static_cast<Bytes>(
            std::ceil(static_cast<double>(range.bytes()) *
                      cfg_.redundantPrefetchChurn));
        if (!churnOk || churn == 0)
            return Occupancy{start, start};
        Occupancy occ = link_.transfer(start, churn,
                                       Direction::HostToDevice,
                                       TransferKind::BulkPrefetch);
        jobTransferBusy_ += occ.duration();
        if (tracer_) {
            tracer_->instant(TraceCategory::Prefetch,
                             TraceName::PrefetchChurn, prefetchLane_,
                             start, churn);
        }
        return occ;
    }

    // A prefetch larger than the device can never complete; the
    // driver migrates (evicting LRU pages) until the allocation's
    // resident share saturates capacity. Model: move at most what
    // eviction can make room for and leave the tail host-side.
    Bytes movable = std::min<Bytes>(pending, devMem_.capacity());
    Tick begin = ensureCapacity(movable, start);
    Occupancy occ = link_.transfer(begin, movable,
                                   Direction::HostToDevice,
                                   TransferKind::BulkPrefetch);
    jobTransferBusy_ += occ.duration();

    Bytes placed = 0;
    for (std::uint64_t c = 0; c < range.chunkCount(); ++c) {
        if (range.state(c) == ChunkState::DeviceResident)
            continue;
        if (placed + range.chunkSize(c) > movable)
            break;
        placed += range.chunkSize(c);
        table_.recordMigration(true, range.chunkSize(c));
        range.setState(c, ChunkState::DeviceResident);
        state.readyAt[c] = occ.end;
        state.prefetched[c] = false; // explicit, not speculative
        ++state.residentChunks;
        devMem_.insert(ResidentChunk{rangeId, c, range.chunkSize(c)});
        latestReady_ = std::max(latestReady_, occ.end);
    }
    return occ;
}

void
MigrationEngine::markRangeDirty(std::size_t rangeId)
{
    syncRanges();
    ManagedRange &range = table_.range(rangeId);
    for (std::uint64_t c = 0; c < range.chunkCount(); ++c) {
        if (range.state(c) == ChunkState::DeviceResident)
            range.setDirty(c, true);
    }
}

Tick
MigrationEngine::writebackDirty(std::size_t rangeId, Tick now)
{
    syncRanges();
    ManagedRange &range = table_.range(rangeId);
    Bytes dirtyBytes = 0;
    for (std::uint64_t c = 0; c < range.chunkCount(); ++c) {
        if (range.state(c) == ChunkState::DeviceResident &&
            range.dirty(c)) {
            dirtyBytes += range.chunkSize(c);
            range.setDirty(c, false);
        }
    }
    if (dirtyBytes == 0)
        return now;
    Occupancy occ = link_.transfer(now, dirtyBytes,
                                   Direction::DeviceToHost,
                                   TransferKind::Writeback);
    jobTransferBusy_ += occ.duration();
    table_.recordMigration(false, dirtyBytes);
    return occ.end;
}

bool
MigrationEngine::allRangesResident() const
{
    for (std::size_t r = 0; r < rangeState_.size(); ++r) {
        if (rangeState_[r].residentChunks !=
            rangeState_[r].readyAt.size())
            return false;
    }
    return rangeState_.size() == table_.rangeCount();
}

std::uint64_t
MigrationEngine::unusedPrefetches() const
{
    std::uint64_t total = 0;
    for (const RangeState &state : rangeState_)
        total += state.outstandingPrefetches;
    return total;
}

void
MigrationEngine::exportStats(StatMap &out) const
{
    putStat(out, "job_transfer_busy_ps",
            static_cast<double>(jobTransferBusy_));
    putStat(out, "job_faults", static_cast<double>(jobFaults_));
    putStat(out, "unused_prefetches",
            static_cast<double>(unusedPrefetches()));
    faultHandler_.exportStats(out);
    prefetcher_.exportStats(out);
}

} // namespace uvmasync
