#include "gpu/kernel_executor.hh"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/logging.hh"
#include "inject/injector.hh"
#include "xfer/migration_engine.hh"

namespace uvmasync
{

namespace
{

/** @{ Synchronous-staging calibration. */
/** Load-path inflation of the LDG->register->STS staging loop. */
constexpr double kRegStagingPenalty = 1.9;
/** Block-wide barrier cost per tile (cycles). */
constexpr double kBarrierCyclesPerTile = 40.0;
/** Async pipeline arrive/wait latency per tile, charged per warp
 * (every warp issues its own commit/wait_group). */
constexpr double kAsyncWaitCyclesPerWarpTile = 30.0;
/** @} */

} // namespace

KernelExecutor::KernelExecutor(KernelExecConfig cfg)
    : cfg_(std::move(cfg))
{
    // UVM-mode executors need a MigrationEngine to *run*, but not to
    // derive timings; run() checks so the static cost model can use
    // estimateResident() on an engine-less executor.
}

double
KernelExecutor::stagedReadLocality(const KernelDescriptor &kd) const
{
    double weight = 0.0;
    double acc = 0.0;
    for (const KernelBufferUse &use : kd.buffers) {
        if (!use.read)
            continue;
        double w = static_cast<double>(cfg_.bufferBytes[use.bufferId]) *
                   use.touchedFraction;
        acc += patternLocality(use.pattern) * w;
        weight += w;
    }
    return weight > 0.0 ? acc / weight : 0.7;
}

KernelExecutor::Derived
KernelExecutor::derive(const KernelDescriptor &kd) const
{
    const GpuConfig &gpu = cfg_.gpu;
    // A kernel only has an async variant if it stages tiles through
    // shared memory (pool/shortcut-style kernels keep their plain
    // form even in async configurations).
    bool staged = false;
    for (const KernelBufferUse &use : kd.buffers) {
        if (use.read && use.stagedThroughShared)
            staged = true;
    }
    bool async = usesAsyncCopy(cfg_.mode) && staged;

    Derived d;
    d.carveout = cfg_.sharedCarveout ? cfg_.sharedCarveout
                                     : gpu.defaultSharedCarveout;

    Bytes shared_req = kd.sharedBytesPerBlock;
    if (async) {
        shared_req = static_cast<Bytes>(
            std::ceil(static_cast<double>(shared_req) *
                      gpu.asyncSharedMemFactor));
    }
    d.occ = computeOccupancy(gpu, kd.threadsPerBlock, shared_req,
                             d.carveout);
    d.tileScale = d.occ.tileScale;

    d.tileLoadBytes = std::max<Bytes>(
        1, static_cast<Bytes>(static_cast<double>(kd.tileLoadBytes) *
                              d.tileScale));
    d.tileStoreBytes = static_cast<Bytes>(
        static_cast<double>(kd.tileStoreBytes) * d.tileScale);
    d.tilesPerBlock = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(static_cast<double>(kd.tilesPerBlock) /
                         d.tileScale)));

    d.activeSms = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        gpu.smCount, std::max<std::uint64_t>(1, kd.gridBlocks)));
    // A grid smaller than the residency limit leaves SMs holding
    // fewer blocks than the occupancy calculation allows.
    auto gridPerSm = static_cast<std::uint32_t>(
        (kd.gridBlocks + d.activeSms - 1) / d.activeSms);
    d.residentBlocks = std::min(d.occ.blocksPerSm, gridPerSm);
    d.residentBlocks = std::max<std::uint32_t>(d.residentBlocks, 1);
    std::uint32_t warpsPerBlock =
        (kd.threadsPerBlock + gpu.warpSize - 1) / gpu.warpSize;
    d.effWarpsPerSm = std::min(d.residentBlocks * warpsPerBlock,
                               gpu.maxWarpsPerSm);
    d.parallelEff = std::min(
        1.0, static_cast<double>(d.effWarpsPerSm) /
                 std::max(1.0, kd.warpsToSaturate));

    if (cfg_.l1Memo) {
        UVMASYNC_ASSERT(cfg_.l1Memo->matches(gpu, cfg_.bufferBytes,
                                             d.carveout, cfg_.seed),
                        "%s: L1 memo built for another L1 context",
                        kd.name.c_str());
        d.cache = cfg_.l1Memo->get(kd, cfg_.mode);
    } else {
        d.cache = simulateL1(gpu, kd, cfg_.bufferBytes, cfg_.mode,
                             d.carveout, cfg_.seed);
    }

    // Per-tile instruction mix: element-proportional parts scale with
    // the tile, async adds fixed per-thread pipeline management.
    d.perTile = InstrMix{kd.memPerTile, kd.fpPerTile, kd.intPerTile,
                         kd.ctrlPerTile} *
                d.tileScale;
    if (async) {
        double threads = static_cast<double>(kd.threadsPerBlock);
        d.perTile.control += gpu.asyncCtrlPerThreadTile * threads;
        d.perTile.integer += gpu.asyncIntPerThreadTile * threads;
    }

    // --- Memory path (slot view: R blocks share one SM) ---
    double r = static_cast<double>(d.residentBlocks);
    double l1Bw = gpu.smLsuBandwidth.bytesPerSecond();
    double l2Share = gpu.l2Bandwidth.bytesPerSecond() /
                     static_cast<double>(d.activeSms);
    double hbmEff = 0.45 + 0.55 * stagedReadLocality(kd);
    double hbmShare = gpu.hbmBandwidth.bytesPerSecond() * hbmEff /
                      static_cast<double>(d.activeSms);

    // L2 residency: the re-read share of the kernel's load traffic
    // (descriptor traffic beyond the touched footprint) hits the
    // 40 MB L2 when the read working set fits it — gemm-style weight
    // tiles never leave L2; GB-scale streams never enter it.
    double readFootprint = 0.0;
    for (const KernelBufferUse &use : kd.buffers) {
        if (use.read) {
            readFootprint +=
                static_cast<double>(cfg_.bufferBytes[use.bufferId]) *
                use.touchedFraction;
        }
    }
    double totalLoad = static_cast<double>(kd.totalLoadBytes());
    double reRead =
        totalLoad > 0.0
            ? std::max(0.0, 1.0 - readFootprint / totalLoad)
            : 0.0;
    double l2Fit =
        readFootprint > 0.0
            ? std::min(1.0, static_cast<double>(
                                gpu.l2CapacityBytes) /
                                readFootprint)
            : 0.0;
    double l2Hit = reRead * l2Fit;
    double missBw =
        1.0 / (l2Hit / l2Share +
               (1.0 - l2Hit) / std::min(l2Share, hbmShare));

    // A miss fetches a whole sector, so the memory-side traffic per
    // payload byte is missRate * (sector / element). Sequential
    // streams resolve to ~1.0 (every byte crosses HBM once); reuse
    // patterns land below it; random 4 B gathers overfetch up to 8x.
    double sectorPerElement =
        static_cast<double>(gpu.l1LineBytes) / 4.0;

    // UVM machinery (migration metadata, prefetch-injected lines)
    // evicts in-use sectors, so some are fetched twice; the smaller
    // the L1 share of the partition, the worse the refetching — the
    // Figure 13 "too much shared memory hurts UVM" effect.
    double uvmRefetch = 1.0;
    if (usesUvm(cfg_.mode)) {
        double l1Share =
            static_cast<double>(gpu.l1Capacity(d.carveout)) /
            static_cast<double>(gpu.unifiedL1Bytes);
        uvmRefetch += 0.35 * (1.0 - l1Share);
    }

    // The synchronous load path: hits from L1, miss traffic from
    // L2/HBM at sector granularity.
    double m = d.cache.loadMissRate;
    double syncLoadBw =
        1.0 / ((1.0 - m) / l1Bw +
               m * sectorPerElement * uvmRefetch / missBw);

    double effLoadBw = syncLoadBw;
    if (async) {
        // cp.async bypasses L1 for the staged buffers: their gather
        // pattern's raw sector traffic hits L2/HBM directly (reuse
        // lives in shared memory, which the descriptor's tile
        // traffic already encodes). Buffers marked unstaged keep the
        // synchronous L1 path; the effective bandwidth is the
        // byte-weighted harmonic blend of the two.
        double stagedW = 0.0;
        double unstagedW = 0.0;
        double traffic = 0.0;
        for (const KernelBufferUse &use : kd.buffers) {
            if (!use.read)
                continue;
            double w =
                static_cast<double>(cfg_.bufferBytes[use.bufferId]) *
                use.touchedFraction;
            if (use.stagedThroughShared) {
                traffic += patternSectorTraffic(use.pattern) * w;
                stagedW += w;
            } else {
                unstagedW += w;
            }
        }
        traffic = stagedW > 0.0 ? traffic / stagedW : 1.0;
        double asyncBw =
            missBw / (traffic * uvmRefetch) * gpu.asyncCopyBwBonus;
        double total = stagedW + unstagedW;
        if (total > 0.0) {
            effLoadBw = 1.0 / (stagedW / total / asyncBw +
                               unstagedW / total / syncLoadBw);
        } else {
            effLoadBw = asyncBw;
        }
    }

    double ms = d.cache.storeMissRate;
    double storeTraffic = ms * sectorPerElement;
    double effStoreBw =
        1.0 / ((1.0 - ms) / l1Bw + storeTraffic / missBw);

    // Memory-level parallelism: sustaining the load path needs enough
    // resident warps to keep requests outstanding; an under-occupied
    // SM cannot saturate even its HBM share (the thread-count
    // sensitivity of Figure 12).
    double loadPs = static_cast<double>(d.tileLoadBytes) * r * 1e12 /
                    (effLoadBw * d.parallelEff);
    double storePs = static_cast<double>(d.tileStoreBytes) * r * 1e12 /
                     (effStoreBw * d.parallelEff);

    // --- Compute path ---
    double cycles = d.perTile.fp / gpu.fpPerCycle +
                    d.perTile.integer / gpu.intPerCycle +
                    d.perTile.control / gpu.ctrlPerCycle +
                    d.perTile.memory / gpu.memIssuePerCycle *
                        (async ? 0.5 : 1.0);
    if (usesUvm(cfg_.mode)) {
        double pages = static_cast<double>(d.tileLoadBytes) /
                       static_cast<double>(gpu.gpuPageBytes);
        cycles += pages * gpu.pageWalkCycles * gpu.tlbMissFraction;
    }
    double period = gpu.clock.periodPs();
    double computePs = cycles * period * r / d.parallelEff;
    if (async)
        computePs *= std::max(1.0, kd.asyncComputePenalty);

    // --- Tile pipeline shaping per mode ---
    // Load and compute proceed on different pipes (LSU/HBM vs cores)
    // and overlap across warps in both modes; the slower pipe bounds
    // the tile. The sync path pays the register staging penalty on
    // its loads and a block barrier; the async path pays the pipeline
    // wait and its extra control instructions (already folded into
    // computePs via the instruction mix).
    if (async) {
        // Every warp commits and drains its own wait_group, and the
        // drains convoy at the stage boundary — the cost grows
        // superlinearly with warps per block, which is why wide
        // blocks (shallow per-thread buffers) profit least from
        // async memcpy (Figure 12's 1024-thread point).
        double warps = static_cast<double>(warpsPerBlock);
        double wait = kAsyncWaitCyclesPerWarpTile *
                      gpu.asyncWaitMultiplier * warps * period * r /
                      d.parallelEff;
        d.tileTimePs = std::max(loadPs + storePs, computePs) + wait;
        d.fillTimePs = loadPs;
        d.asyncWaitPerTilePs = wait;
    } else {
        double barrier = kBarrierCyclesPerTile * period * r /
                         d.parallelEff;
        d.tileTimePs =
            std::max(loadPs * kRegStagingPenalty + storePs,
                     computePs) +
            barrier;
        d.fillTimePs = 0.0;
    }
    return d;
}

Tick
KernelExecutor::requestGroup(const DemandMap &map,
                             std::span<const ChunkSpan> spans,
                             std::uint64_t b, std::uint64_t g,
                             Tick t) const
{
    MigrationEngine &uvm = *cfg_.uvm;
    Tick ready = t;
    for (std::size_t u = 0; u < spans.size(); ++u) {
        std::size_t rangeId = map.uses()[u].rangeId;
        ChunkSpan group = map.groupSpan(spans[u], g);
        for (std::uint64_t c = group.lo; c < group.hi; ++c) {
            ready = std::max(ready,
                             uvm.requestChunk(rangeId,
                                              map.chunkAt(u, b, c), t));
        }
    }
    return ready;
}

const KernelExecutor::Derived &
KernelExecutor::derivedFor(const KernelDescriptor &kd)
{
    auto it = derivedCache_.find(kd.name);
    if (it == derivedCache_.end())
        it = derivedCache_.emplace(kd.name, derive(kd)).first;
    return it->second;
}

KernelStaticEstimate
KernelExecutor::estimateResident(const KernelDescriptor &kd)
{
    const Derived &d = derivedFor(kd);

    std::uint64_t slots = static_cast<std::uint64_t>(d.activeSms) *
                          d.residentBlocks;
    slots = std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(slots, kd.gridBlocks));
    auto blockTime = static_cast<Tick>(
        std::ceil(d.tileTimePs * static_cast<double>(d.tilesPerBlock) +
                  d.fillTimePs));
    blockTime = std::max<Tick>(blockTime, 1);

    KernelStaticEstimate est;
    est.waves = (kd.gridBlocks + slots - 1) / slots;
    est.blockTimePs = blockTime;
    est.launchPs = cfg_.gpu.kernelLaunchOverhead +
                   static_cast<Tick>(est.waves) * blockTime;
    est.occupancy = d.occ.occupancy;
    est.blocksPerSm = d.occ.blocksPerSm;
    return est;
}

KernelResult
KernelExecutor::run(const KernelDescriptor &kd, Tick start)
{
    const Derived &d = derivedFor(kd);
    bool uvm = usesUvm(cfg_.mode);
    if (uvm) {
        UVMASYNC_ASSERT(cfg_.uvm != nullptr,
                        "UVM mode requires a MigrationEngine");
        UVMASYNC_ASSERT(cfg_.bufferRangeIds.size() ==
                            cfg_.bufferBytes.size(),
                        "range-id map must cover every buffer");
    }

    KernelResult res;
    res.startTick = start;
    res.l1LoadMissRate = d.cache.loadMissRate;
    res.l1StoreMissRate = d.cache.storeMissRate;
    res.occupancy = d.occ.occupancy;
    res.blocksPerSm = d.occ.blocksPerSm;

    std::uint64_t faultsBefore = uvm ? cfg_.uvm->jobFaults() : 0;

    Tick launchDone = start + cfg_.gpu.kernelLaunchOverhead;
    // Injected launch jitter: queueing noise between the driver call
    // and the grid actually starting (contended scheduler, clock
    // ramp); everything downstream shifts with launchDone.
    if (cfg_.inject)
        launchDone += cfg_.inject->launchJitter(start);
    std::uint64_t slots = static_cast<std::uint64_t>(d.activeSms) *
                          d.residentBlocks;
    slots = std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(slots, kd.gridBlocks));

    auto blockTime = static_cast<Tick>(
        std::ceil(d.tileTimePs * static_cast<double>(d.tilesPerBlock) +
                  d.fillTimePs));
    blockTime = std::max<Tick>(blockTime, 1);

    // When no block can stall on data, block times are uniform and
    // the wave schedule has a closed form; this covers the explicit
    // modes and the steady state of iterative UVM kernels.
    bool dataResident =
        !uvm || (cfg_.uvm->allRangesResident() &&
                 cfg_.uvm->latestReadyTick() <= launchDone);

    Tick end = launchDone;
    Tick stall = 0;
    if (dataResident) {
        std::uint64_t waves =
            (kd.gridBlocks + slots - 1) / slots;
        end = launchDone + static_cast<Tick>(waves) * blockTime;
    } else {
        // Event-ordered interleaving: blocks progress through chunk
        // groups, and the globally earliest continuation always runs
        // next so that demand requests reach the FIFO fault/link
        // resources in time order. A group that demands no chunk has
        // no side effect (no request, stall or trace event), so a
        // block's continuation jumps straight to its next demanding
        // group, or to its finish; every remaining event keeps the
        // (when, block, group) key it would have had.
        DemandMap map(kd, cfg_.bufferBytes,
                      cfg_.uvm->config().chunkBytes,
                      cfg_.maxChunkGroupsPerBlock, cfg_.bufferRangeIds);
        MigrationEngine &engine = *cfg_.uvm;
        std::uint64_t groups = map.groups();
        Tick perGroupCompute = std::max<Tick>(blockTime / groups, 1);
        Tick quietBlockTime = groups * perGroupCompute;

        struct Continuation
        {
            Tick when;
            std::uint64_t block;
            std::uint64_t group;
            std::uint64_t slot;

            bool
            operator>(const Continuation &o) const
            {
                if (when != o.when)
                    return when > o.when;
                if (block != o.block)
                    return block > o.block;
                return group > o.group;
            }
        };
        std::priority_queue<Continuation, std::vector<Continuation>,
                            std::greater<>>
            pending;
        // Finish events of quiet blocks (see startBlock), a FIFO ring
        // of one entry per slot. They are pushed at non-decreasing
        // start ticks plus one constant block time, with increasing
        // block ids, so the ring is sorted by the heap's own key and
        // popping the smaller of its front and the heap top keeps
        // the heap-only order exactly.
        std::vector<Continuation> quiet(slots);
        std::uint64_t quietHead = 0;
        std::uint64_t quietCount = 0;

        // Each slot's current block spans, one per demanding use,
        // computed once when the block starts.
        std::size_t nUses = map.uses().size();
        std::vector<ChunkSpan> slotSpans(slots * nUses);
        auto spansOf = [&](std::uint64_t slot) {
            return std::span<ChunkSpan>(slotSpans).subspan(
                slot * nUses, nUses);
        };
        // Continue block @p b on @p slot from group @p g at @p t.
        auto resume = [&](Tick t, std::uint64_t b, std::uint64_t g,
                          std::uint64_t slot) {
            std::uint64_t n = map.nextDemandGroup(spansOf(slot), g);
            pending.push(Continuation{t + (n - g) * perGroupCompute,
                                      b, n, slot});
        };
        // Whether every chunk of block @p b's @p spans is a quiet
        // hit by @p by; if so, their demands are recorded here. Each
        // chunk id is computed once, kept in quietChunks and marked
        // from there.
        std::vector<std::uint64_t> quietChunks;
        auto quietBlock = [&](std::uint64_t b,
                              std::span<const ChunkSpan> spans,
                              Tick by) {
            quietChunks.clear();
            for (std::size_t u = 0; u < nUses; ++u) {
                std::size_t rangeId = map.uses()[u].rangeId;
                for (std::uint64_t c = spans[u].lo; c < spans[u].hi;
                     ++c) {
                    std::uint64_t chunk = map.chunkAt(u, b, c);
                    if (!engine.quietHit(rangeId, chunk, by))
                        return false;
                    quietChunks.push_back(chunk);
                }
            }
            const std::uint64_t *chunk = quietChunks.data();
            for (std::size_t u = 0; u < nUses; ++u) {
                std::size_t rangeId = map.uses()[u].rangeId;
                for (std::uint64_t n = spans[u].hi - spans[u].lo; n > 0;
                     --n)
                    engine.markDemanded(rangeId, *chunk++);
            }
            return true;
        };
        // A block whose every chunk is a quiet hit by its first
        // demanding group never stalls and has no other effect than
        // its demanded marks, so it finishes one block time later
        // without visiting its groups. Only a launch without LRU
        // tracking has quiet blocks (the job fixes that at its
        // start).
        const bool quietPath = !engine.lruTracked();
        auto startBlock = [&](Tick t, std::uint64_t b,
                              std::uint64_t slot) {
            std::span<ChunkSpan> spans = spansOf(slot);
            map.blockSpans(b, spans);
            std::uint64_t n = map.nextDemandGroup(spans, 0);
            if (quietPath &&
                quietBlock(b, spans, t + n * perGroupCompute)) {
                std::uint64_t tail = quietHead + quietCount++;
                quiet[tail < slots ? tail : tail - slots] =
                    Continuation{t + quietBlockTime, b, groups, slot};
                return;
            }
            pending.push(Continuation{t + n * perGroupCompute, b, n,
                                      slot});
        };

        std::uint64_t nextBlock = std::min<std::uint64_t>(
            slots, kd.gridBlocks);
        for (std::uint64_t b = 0; b < nextBlock; ++b)
            startBlock(launchDone, b, b);

        while (!pending.empty() || quietCount > 0) {
            bool fromRing =
                quietCount > 0 &&
                (pending.empty() || pending.top() > quiet[quietHead]);
            Continuation c = fromRing ? quiet[quietHead] : pending.top();
            if (fromRing) {
                quietHead = quietHead + 1 < slots ? quietHead + 1 : 0;
                --quietCount;
            } else {
                pending.pop();
            }
            if (c.group == groups) {
                // Block finished; its slot picks up the next block.
                end = std::max(end, c.when);
                if (nextBlock < kd.gridBlocks)
                    startBlock(c.when, nextBlock++, c.slot);
                continue;
            }
            Tick ready = requestGroup(map, spansOf(c.slot), c.block,
                                      c.group, c.when);
            stall += ready - c.when;
            if (cfg_.tracer && ready > c.when) {
                cfg_.tracer->instant(TraceCategory::Kernel,
                                     TraceName::DataStall,
                                     cfg_.traceLane, c.when,
                                     ready - c.when);
            }
            resume(ready + perGroupCompute, c.block, c.group + 1,
                   c.slot);
        }
    }

    if (cfg_.tracer) {
        Tracer &tr = *cfg_.tracer;
        tr.span(TraceCategory::Kernel, TraceName::KernelLaunch,
                cfg_.traceLane, start, launchDone, kd.gridBlocks, 0,
                kd.name);
        // TileCompute before AsyncFill: equal starts must arrive
        // outermost-first for the nesting checker.
        tr.span(TraceCategory::Kernel, TraceName::TileCompute,
                cfg_.traceLane, launchDone, end, d.tilesPerBlock,
                slots, kd.name);
        if (d.fillTimePs > 0.0) {
            auto fill = static_cast<Tick>(std::ceil(d.fillTimePs));
            tr.span(TraceCategory::Kernel, TraceName::AsyncFill,
                    cfg_.traceLane, launchDone,
                    std::min(end, launchDone + fill));
        }
        if (d.asyncWaitPerTilePs > 0.0) {
            auto wait = static_cast<std::uint64_t>(
                d.asyncWaitPerTilePs *
                static_cast<double>(d.tilesPerBlock));
            tr.instant(TraceCategory::Kernel,
                       TraceName::DoubleBufferWait, cfg_.traceLane,
                       end, wait);
        }
    }

    res.endTick = end;
    res.stallTime = stall;
    res.instrs = d.perTile * (static_cast<double>(d.tilesPerBlock) *
                              static_cast<double>(kd.gridBlocks));
    res.faults = uvm ? cfg_.uvm->jobFaults() - faultsBefore : 0;
    return res;
}

} // namespace uvmasync
