/**
 * @file
 * Tests for the block-to-chunk DemandMap and the demand-driven UVM
 * event loop built on it.
 *
 * The executor used to push every (block, group) continuation through
 * its queue and ask each group for its chunks, most of which asked
 * for none. This file keeps that per-group loop, and the old
 * per-block span arithmetic, as a reference: randomised launches over
 * twin UVM worlds must agree on end tick, stall time, faults, every
 * component counter and the traced event sequence, including
 * launches built to exercise quiet blocks (those that skip the event
 * queue because every chunk they demand is a resident hit). The
 * DemandMap's division-free span arithmetic is checked against the
 * old divide-and-modulo form at grids up to 2^24 blocks. The static
 * dataflow's old demanded-chunk marking is kept the same way and
 * compared with the map's span union over the whole registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "gpu/demand_map.hh"
#include "gpu/kernel_executor.hh"
#include "mem/device_memory.hh"
#include "mem/page_table.hh"
#include "runtime/system_config.hh"
#include "workloads/registry.hh"
#include "xfer/migration_engine.hh"
#include "xfer/pcie_link.hh"

namespace uvmasync
{
namespace
{

// --- the pre-DemandMap reference ---------------------------------

std::uint64_t
refPermuteIndex(std::uint64_t i, std::uint64_t n)
{
    if (n <= 1)
        return 0;
    return (i * 2654435761ull + 0x9e3779b9ull) % n;
}

/** The old KernelExecutor::requestGroup, verbatim in effect. */
Tick
refRequestGroup(const KernelExecConfig &cfg, const KernelDescriptor &kd,
                std::uint64_t b, std::uint64_t g, std::uint64_t groups,
                Tick t)
{
    MigrationEngine &uvm = *cfg.uvm;
    Bytes chunkBytes = uvm.config().chunkBytes;
    Tick ready = t;
    for (const KernelBufferUse &use : kd.buffers) {
        if (use.touchedFraction <= 0.0)
            continue;
        std::size_t rangeId = cfg.bufferRangeIds[use.bufferId];
        Bytes bytes = cfg.bufferBytes[use.bufferId];
        std::uint64_t chunks = (bytes + chunkBytes - 1) / chunkBytes;
        auto touched = static_cast<std::uint64_t>(
            std::ceil(static_cast<double>(chunks) *
                      std::clamp(use.touchedFraction, 0.0, 1.0)));
        if (touched == 0)
            continue;
        std::uint64_t blocks = std::max<std::uint64_t>(1, kd.gridBlocks);
        std::uint64_t pos = b;
        if (use.pattern == AccessPattern::Irregular)
            pos = refPermuteIndex(b, blocks);
        std::uint64_t lo = pos * touched / blocks;
        std::uint64_t hi = (pos + 1) * touched / blocks;
        if (hi <= lo)
            hi = lo + 1;
        std::uint64_t span = hi - lo;
        std::uint64_t glo = lo + g * span / groups;
        std::uint64_t ghi = lo + (g + 1) * span / groups;
        if (g + 1 == groups)
            ghi = hi;
        for (std::uint64_t c = glo; c < ghi && c < chunks; ++c) {
            std::uint64_t chunk = c;
            if (use.pattern == AccessPattern::Random)
                chunk = refPermuteIndex(c * blocks + b, touched);
            ready = std::max(ready, uvm.requestChunk(rangeId, chunk, t));
        }
    }
    return ready;
}

struct RefResult
{
    Tick end = 0;
    Tick stall = 0;
    std::uint64_t faults = 0;
};

/**
 * The old KernelExecutor::run for UVM modes without an injector: every
 * (block, group) is one continuation. Slot geometry and block time
 * come from the public resident estimate.
 */
/** Residency slots of a launch, as the executor derives them. */
std::uint64_t
refSlots(const KernelExecConfig &cfg, const KernelDescriptor &kd,
         const KernelStaticEstimate &est)
{
    std::uint64_t activeSms = std::min<std::uint64_t>(
        cfg.gpu.smCount, std::max<std::uint64_t>(1, kd.gridBlocks));
    std::uint64_t gridPerSm = (kd.gridBlocks + activeSms - 1) / activeSms;
    std::uint64_t resident = std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(est.blocksPerSm, gridPerSm));
    std::uint64_t slots = std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(activeSms * resident, kd.gridBlocks));
    EXPECT_EQ(est.waves, (kd.gridBlocks + slots - 1) / slots)
        << "reference slot geometry disagrees with the executor";
    return slots;
}

RefResult
refRun(const KernelExecConfig &cfg, const KernelDescriptor &kd,
       Tick start)
{
    KernelExecutor estimator(cfg);
    KernelStaticEstimate est = estimator.estimateResident(kd);
    std::uint64_t slots = refSlots(cfg, kd, est);
    Tick blockTime = est.blockTimePs;

    MigrationEngine &uvm = *cfg.uvm;
    std::uint64_t faultsBefore = uvm.jobFaults();
    Tick launchDone = start + cfg.gpu.kernelLaunchOverhead;
    RefResult res;
    res.end = launchDone;
    if (uvm.allRangesResident() && uvm.latestReadyTick() <= launchDone) {
        std::uint64_t waves = (kd.gridBlocks + slots - 1) / slots;
        res.end = launchDone + static_cast<Tick>(waves) * blockTime;
        return res;
    }

    std::uint64_t groups =
        std::max<std::uint32_t>(1, cfg.maxChunkGroupsPerBlock);
    Tick perGroupCompute = std::max<Tick>(blockTime / groups, 1);
    using Cont = std::tuple<Tick, std::uint64_t, std::uint64_t>;
    std::priority_queue<Cont, std::vector<Cont>, std::greater<>> pending;
    std::uint64_t nextBlock = std::min<std::uint64_t>(slots, kd.gridBlocks);
    for (std::uint64_t b = 0; b < nextBlock; ++b)
        pending.push(Cont{launchDone, b, 0});
    while (!pending.empty()) {
        auto [when, block, group] = pending.top();
        pending.pop();
        if (group == groups) {
            res.end = std::max(res.end, when);
            if (nextBlock < kd.gridBlocks)
                pending.push(Cont{when, nextBlock++, 0});
            continue;
        }
        Tick ready = refRequestGroup(cfg, kd, block, group, groups, when);
        res.stall += ready - when;
        if (cfg.tracer && ready > when) {
            cfg.tracer->instant(TraceCategory::Kernel,
                                TraceName::DataStall, cfg.traceLane,
                                when, ready - when);
        }
        pending.push(Cont{ready + perGroupCompute, block, group + 1});
    }
    res.faults = uvm.jobFaults() - faultsBefore;
    return res;
}

/** The old analysis/dataflow.cc markDemanded, exact path. */
void
refMarkDemanded(std::vector<std::uint8_t> &bits,
                const KernelBufferUse &use, std::uint64_t gridBlocks,
                std::uint64_t chunks)
{
    auto touched = static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(chunks) *
                  std::clamp(use.touchedFraction, 0.0, 1.0)));
    if (touched == 0)
        return;
    std::uint64_t blocks = std::max<std::uint64_t>(1, gridBlocks);
    if (use.pattern == AccessPattern::Sequential) {
        std::fill(bits.begin(),
                  bits.begin() + static_cast<std::ptrdiff_t>(touched), 1);
        return;
    }
    ASSERT_LE(std::max(blocks, touched), 1ull << 22)
        << "past the exact-mapping budget";
    for (std::uint64_t b = 0; b < blocks; ++b) {
        std::uint64_t pos = b;
        if (use.pattern == AccessPattern::Irregular)
            pos = refPermuteIndex(b, blocks);
        std::uint64_t lo = pos * touched / blocks;
        std::uint64_t hi = (pos + 1) * touched / blocks;
        if (hi <= lo)
            hi = lo + 1;
        for (std::uint64_t c = lo; c < hi && c < chunks; ++c) {
            std::uint64_t chunk = c;
            if (use.pattern == AccessPattern::Random)
                chunk = refPermuteIndex(c * blocks + b, touched);
            bits[chunk] = 1;
        }
    }
}

// --- DemandMap unit behaviour ------------------------------------

TEST(DemandMap, SkipsUsesThatDemandNothing)
{
    KernelDescriptor kd;
    kd.gridBlocks = 4;
    kd.buffers = {
        KernelBufferUse{0, AccessPattern::Sequential, true, false, 0.0},
        KernelBufferUse{1, AccessPattern::Random, true, false, 0.5},
        KernelBufferUse{2, AccessPattern::Sequential, true, false, 1.0},
        KernelBufferUse{7, AccessPattern::Sequential, true, false, 1.0},
    };
    DemandMap map(kd, {mib(1), mib(1), 0}, kib(256), 8, {5, 6, 7});
    ASSERT_EQ(map.uses().size(), 1u);
    EXPECT_EQ(map.uses()[0].bufferId, 1u);
    EXPECT_EQ(map.uses()[0].rangeId, 6u);
    EXPECT_EQ(map.uses()[0].chunks, 4u);
    EXPECT_EQ(map.uses()[0].touched, 2u);
    EXPECT_EQ(map.groups(), 8u);

    DemandMap noRanges(kd, {mib(1), mib(1), 0}, kib(256));
    EXPECT_EQ(noRanges.uses()[0].rangeId, 1u);
    EXPECT_EQ(noRanges.groups(), 1u);
}

/** Group @p g's share of @p block under @p groups groups, by the
 * defining arithmetic. */
ChunkSpan
refGroupSpan(ChunkSpan block, std::uint64_t groups, std::uint64_t g)
{
    std::uint64_t len = block.hi - block.lo;
    return ChunkSpan{block.lo + g * len / groups,
                     block.lo + (g + 1) * len / groups};
}

/** First group at or after @p g with a non-empty share of any of
 * @p spans, by brute force over refGroupSpan. */
std::uint64_t
refNextDemandGroup(const std::vector<ChunkSpan> &spans,
                   std::uint64_t groups, std::uint64_t g)
{
    for (std::uint64_t h = g; h < groups; ++h) {
        for (const ChunkSpan &span : spans) {
            ChunkSpan group = refGroupSpan(span, groups, h);
            if (group.hi > group.lo)
                return h;
        }
    }
    return groups;
}

TEST(DemandMap, NextDemandGroupMatchesBruteForce)
{
    std::mt19937_64 rng(7);
    for (int trial = 0; trial < 2000; ++trial) {
        KernelDescriptor kd;
        kd.gridBlocks = 1 + rng() % 64;
        std::uint64_t groups = 1 + rng() % 12;
        std::size_t nUses = 1 + rng() % 3;
        std::vector<Bytes> bytes;
        for (std::size_t u = 0; u < nUses; ++u) {
            bytes.push_back((1 + rng() % 40) * kib(256));
            kd.buffers.push_back(KernelBufferUse{
                u, allAccessPatterns[rng() % allAccessPatterns.size()],
                true, false, (rng() % 4) / 3.0});
        }
        DemandMap map(kd, bytes, kib(256), groups);
        std::vector<ChunkSpan> spans(map.uses().size());
        for (std::uint64_t b = 0; b < kd.gridBlocks; ++b) {
            map.blockSpans(b, spans);
            for (std::uint64_t g = 0; g <= groups; ++g) {
                ASSERT_EQ(map.nextDemandGroup(spans, g),
                          refNextDemandGroup(spans, groups, g))
                    << "trial " << trial << " block " << b << " group "
                    << g;
            }
        }
    }
}

/**
 * The group tables against the defining arithmetic at every span
 * length from 1 to 3·G, for group counts up to and at the tables'
 * limit (DemandMap::kMaxGroups = 64): groupSpan for every group, and
 * nextDemandGroup from every group for one span and for pairs of
 * spans. One group past the limit is refused.
 */
TEST(DemandMap, GroupTablesMatchArithmeticAtEveryLength)
{
    KernelDescriptor kd;
    kd.gridBlocks = 4;
    kd.buffers.push_back(KernelBufferUse{0, AccessPattern::Sequential,
                                         true, false, 1.0});
    for (std::uint64_t groups : {1, 2, 3, 7, 8, 64}) {
        DemandMap map(kd, {mib(4)}, kib(256), groups);
        ASSERT_EQ(map.groups(), groups);
        for (std::uint64_t len = 1; len <= 3 * groups; ++len) {
            for (std::uint64_t lo : {0u, 5u}) {
                ChunkSpan span{lo, lo + len};
                for (std::uint64_t g = 0; g < groups; ++g) {
                    ChunkSpan got = map.groupSpan(span, g);
                    ChunkSpan want = refGroupSpan(span, groups, g);
                    ASSERT_EQ(got.lo, want.lo) << "G " << groups
                        << " len " << len << " group " << g;
                    ASSERT_EQ(got.hi, want.hi) << "G " << groups
                        << " len " << len << " group " << g;
                }
                std::vector<ChunkSpan> one = {span};
                for (std::uint64_t g = 0; g <= groups; ++g) {
                    ASSERT_EQ(map.nextDemandGroup(one, g),
                              refNextDemandGroup(one, groups, g))
                        << "G " << groups << " len " << len << " from "
                        << g;
                }
            }
            for (std::uint64_t other = 1; other <= 3 * groups;
                 other += 1 + groups / 8) {
                std::vector<ChunkSpan> two = {{0, len}, {7, 7 + other}};
                for (std::uint64_t g = 0; g <= groups; ++g) {
                    ASSERT_EQ(map.nextDemandGroup(two, g),
                              refNextDemandGroup(two, groups, g))
                        << "G " << groups << " lens " << len << ", "
                        << other << " from " << g;
                }
            }
        }
    }
    static_assert(DemandMap::kMaxGroups == 64);
    EXPECT_DEATH(DemandMap(kd, {mib(4)}, kib(256), 65),
                 "65 chunk groups per block, more than 64");
}

/**
 * The map's division-free span and hash arithmetic against the old
 * divide-and-modulo form, for every pattern, at block counts from 1
 * to 2^24 (a prime near 2^20 among them) and touched prefixes below,
 * near and far above the block count. Large grids are sampled at
 * both ends and at random; long spans at both ends.
 */
TEST(DemandMap, SpansMatchReferenceArithmetic)
{
    const std::uint64_t blockCounts[] = {
        1, 2, 3, 7, 1048573, std::uint64_t{1} << 21,
        std::uint64_t{1} << 24};
    std::mt19937_64 rng(2019);
    std::uint64_t checked = 0;
    for (std::uint64_t blocks : blockCounts) {
        const std::uint64_t toucheds[] = {
            1, 2, 5, blocks / 3 + 1, blocks, blocks + 1, 3 * blocks + 7,
            (std::uint64_t{1} << 33) + 5};
        std::vector<std::uint64_t> sample;
        for (std::uint64_t b = 0; b < std::min<std::uint64_t>(blocks, 64);
             ++b) {
            sample.push_back(b);
            sample.push_back(blocks - 1 - b);
        }
        for (int i = 0; i < 256 && blocks > 128; ++i)
            sample.push_back(rng() % blocks);

        for (std::uint64_t touched : toucheds) {
            KernelDescriptor kd;
            kd.gridBlocks = blocks;
            // One-byte chunks: each buffer's touched prefix is its
            // whole length.
            std::vector<Bytes> bytes(allAccessPatterns.size(), touched);
            for (std::size_t u = 0; u < allAccessPatterns.size(); ++u) {
                kd.buffers.push_back(KernelBufferUse{
                    u, allAccessPatterns[u], true, false, 1.0});
            }
            DemandMap map(kd, bytes, 1);
            ASSERT_EQ(map.uses().size(), allAccessPatterns.size());
            for (std::uint64_t b : sample) {
                for (std::size_t u = 0; u < map.uses().size(); ++u) {
                    AccessPattern pattern = allAccessPatterns[u];
                    ASSERT_EQ(map.uses()[u].touched, touched);
                    std::uint64_t pos = b;
                    if (pattern == AccessPattern::Irregular)
                        pos = refPermuteIndex(b, blocks);
                    std::uint64_t lo = pos * touched / blocks;
                    std::uint64_t hi = (pos + 1) * touched / blocks;
                    if (hi <= lo)
                        hi = lo + 1;
                    ChunkSpan got = map.blockSpan(u, b);
                    ASSERT_EQ(got.lo, lo)
                        << accessPatternName(pattern) << " blocks " << blocks
                        << " touched " << touched << " block " << b;
                    ASSERT_EQ(got.hi, hi)
                        << accessPatternName(pattern) << " blocks " << blocks
                        << " touched " << touched << " block " << b;
                    for (std::uint64_t c = lo; c < hi; ++c) {
                        if (c == lo + 16 && hi - lo > 32)
                            c = hi - 16;
                        std::uint64_t want = c;
                        if (pattern == AccessPattern::Random)
                            want = refPermuteIndex(c * blocks + b,
                                                   touched);
                        ASSERT_EQ(map.chunkAt(u, b, c), want)
                            << accessPatternName(pattern) << " blocks "
                            << blocks << " touched " << touched
                            << " block " << b << " position " << c;
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 100000u);
}

/**
 * Over every registry kernel at Tiny and Small, the union of the
 * map's group spans equals what the static dataflow used to mark.
 */
TEST(DemandMap, SpanUnionMatchesOldDataflowMarking)
{
    registerAllWorkloads();
    SystemConfig sys = SystemConfig::a100Epyc();
    Bytes chunkBytes = sys.uvm.chunkBytes;
    std::uint64_t uses = 0;
    for (const std::string &name : WorkloadRegistry::instance().names()) {
        const Workload &w = *WorkloadRegistry::instance().find(name);
        for (SizeClass size : {SizeClass::Tiny, SizeClass::Small}) {
            Job job = w.makeJob(size);
            std::vector<Bytes> bytes;
            for (const JobBuffer &buf : job.buffers)
                bytes.push_back(buf.bytes);
            for (const KernelDescriptor &kd : job.kernels) {
                DemandMap map(kd, bytes, chunkBytes, 8);
                std::size_t u = 0;
                for (const KernelBufferUse &use : kd.buffers) {
                    std::uint64_t chunks =
                        (bytes[use.bufferId] + chunkBytes - 1) /
                        chunkBytes;
                    std::vector<std::uint8_t> want(chunks, 0);
                    refMarkDemanded(want, use, kd.gridBlocks, chunks);
                    if (std::count(want.begin(), want.end(), 1) == 0)
                        continue; // demands nothing: not in the map
                    ASSERT_LT(u, map.uses().size()) << kd.name;
                    ASSERT_EQ(map.uses()[u].bufferId, use.bufferId);
                    std::vector<std::uint8_t> got(chunks, 0);
                    for (std::uint64_t b = 0; b < map.blocks(); ++b) {
                        ChunkSpan block = map.blockSpan(u, b);
                        for (std::uint64_t g = 0; g < map.groups();
                             ++g) {
                            ChunkSpan s = map.groupSpan(block, g);
                            for (std::uint64_t c = s.lo; c < s.hi; ++c)
                                got[map.chunkAt(u, b, c)] = 1;
                        }
                    }
                    EXPECT_EQ(got, want)
                        << name << " @ " << sizeClassName(size) << " "
                        << kd.name << " buffer " << use.bufferId;
                    ++u;
                    ++uses;
                }
                EXPECT_EQ(u, map.uses().size()) << kd.name;
            }
        }
    }
    EXPECT_GT(uses, 100u);
}

// --- the demand-driven event loop against the reference ----------

/** One self-contained UVM world: residency, HBM, link, engine. */
struct UvmWorld
{
    UvmWorld(const UvmConfig &uvmCfg, Bytes capacity,
             const std::vector<Bytes> &bytes)
        : table("pt"),
          devMem("hbm", capacity, Bandwidth::fromGBps(1400.0)),
          link("pcie", PcieConfig{}),
          engine("uvm", uvmCfg, table, devMem, link)
    {
        for (std::size_t i = 0; i < bytes.size(); ++i) {
            rangeIds.push_back(table.addRange(
                "buf" + std::to_string(i), bytes[i], uvmCfg.chunkBytes));
        }
        engine.beginJob();
        tracer.lane("kernel"); // lane 0, KernelExecConfig's default
        engine.setTrace(&tracer, tracer.lane("fault"),
                        tracer.lane("prefetch"), tracer.lane("migrate"));
        link.setTrace(&tracer, tracer.lane("h2d"), tracer.lane("d2h"));
    }

    StatMap
    stats() const
    {
        StatMap out;
        table.exportStats(out);
        devMem.exportStats(out);
        link.exportStats(out);
        engine.exportStats(out);
        return out;
    }

    PageTable table;
    DeviceMemory devMem;
    PcieLink link;
    MigrationEngine engine;
    Tracer tracer;
    std::vector<std::size_t> rangeIds;
};

/** Trace events minus the post-loop launch/tile spans, which the
 * reference does not emit (they depend only on the end tick). */
std::vector<std::tuple<Tick, Tick, std::uint64_t, std::uint64_t,
                       std::uint32_t, int, int, std::string>>
loopEvents(const Tracer &tracer)
{
    std::vector<std::tuple<Tick, Tick, std::uint64_t, std::uint64_t,
                           std::uint32_t, int, int, std::string>>
        out;
    for (const TraceEvent &ev : tracer.events()) {
        if (ev.name == TraceName::KernelLaunch ||
            ev.name == TraceName::TileCompute ||
            ev.name == TraceName::AsyncFill ||
            ev.name == TraceName::DoubleBufferWait)
            continue;
        out.emplace_back(ev.start, ev.end, ev.arg, ev.arg2, ev.lane,
                         static_cast<int>(ev.category),
                         static_cast<int>(ev.name), ev.label);
    }
    return out;
}

TEST(DemandDrivenLoop, MatchesPerGroupReference)
{
    std::mt19937_64 rng(20260417);
    const double fractions[] = {0.0, 0.3, 1.0};
    const PrefetcherKind prefetchers[] = {
        PrefetcherKind::None, PrefetcherKind::Stream,
        PrefetcherKind::Tree};
    const TransferMode modes[] = {TransferMode::Uvm,
                                  TransferMode::UvmPrefetchAsync};
    std::uint64_t stalledLaunches = 0;
    std::uint64_t evictingWorlds = 0;
    for (int trial = 0; trial < 48; ++trial) {
        UvmConfig uvmCfg;
        uvmCfg.demandPrefetcher = prefetchers[rng() % 3];

        std::size_t nBuffers = 1 + rng() % 3;
        std::vector<Bytes> bytes;
        Bytes footprint = 0;
        for (std::size_t i = 0; i < nBuffers; ++i) {
            Bytes b = (1 + rng() % 96) * uvmCfg.chunkBytes -
                      (rng() % 2) * kib(100);
            bytes.push_back(b);
            footprint += b;
        }
        // Half the worlds hold everything; the rest evict.
        bool evicting = trial % 2 == 1;
        Bytes capacity =
            evicting ? std::max<Bytes>(footprint / 3, 4 * uvmCfg.chunkBytes)
                     : gib(40);
        evictingWorlds += evicting;

        std::size_t nUses = 1 + rng() % 4;
        std::vector<KernelBufferUse> uses;
        std::uint64_t touched = 0;
        for (std::size_t u = 0; u < nUses; ++u) {
            KernelBufferUse use{
                rng() % nBuffers,
                allAccessPatterns[rng() % allAccessPatterns.size()],
                true, rng() % 2 == 0, fractions[rng() % 3]};
            touched += static_cast<std::uint64_t>(
                std::ceil(static_cast<double>(bytes[use.bufferId]) /
                          static_cast<double>(uvmCfg.chunkBytes) *
                          use.touchedFraction));
            uses.push_back(use);
        }
        touched = std::max<std::uint64_t>(touched, 1);
        // Grids far below, near and far above the touched chunks.
        std::uint64_t grid = touched * (20 + rng() % 40);
        if (trial % 3 == 0)
            grid = 1 + rng() % std::max<std::uint64_t>(1, touched / 8);
        else if (trial % 3 == 1)
            grid = touched + rng() % 8;

        KernelDescriptor kd = makeStreamKernel(
            "k" + std::to_string(trial), grid, 128, grid * kib(64),
            kib(16), 4, 8.0, 4.0, 0.5, 1.0);
        kd.buffers = uses;

        KernelExecConfig cfg;
        cfg.mode = modes[rng() % 2];
        cfg.bufferBytes = bytes;
        cfg.maxChunkGroupsPerBlock = 1 + static_cast<std::uint32_t>(rng() % 8);

        UvmWorld fast(uvmCfg, capacity, bytes);
        UvmWorld ref(uvmCfg, capacity, bytes);
        // Some chunks are already resident before the launch.
        std::uint64_t warm = rng() % 3;
        for (std::size_t r = 0; r < bytes.size() && warm; ++r) {
            std::uint64_t chunks =
                (bytes[r] + uvmCfg.chunkBytes - 1) / uvmCfg.chunkBytes;
            for (std::uint64_t c = 0; c < chunks; c += warm + 1) {
                fast.engine.requestChunk(fast.rangeIds[r], c, 0);
                ref.engine.requestChunk(ref.rangeIds[r], c, 0);
            }
        }

        KernelExecConfig fastCfg = cfg;
        fastCfg.uvm = &fast.engine;
        fastCfg.bufferRangeIds = fast.rangeIds;
        fastCfg.tracer = &fast.tracer;
        KernelExecConfig refCfg = cfg;
        refCfg.uvm = &ref.engine;
        refCfg.bufferRangeIds = ref.rangeIds;
        refCfg.tracer = &ref.tracer;

        KernelExecutor exec(fastCfg);
        Tick fastStart = microseconds(3);
        Tick refStart = microseconds(3);
        // Two launches: the second starts from the first's residency.
        for (int launch = 0; launch < 2; ++launch) {
            SCOPED_TRACE("trial " + std::to_string(trial) + " launch " +
                         std::to_string(launch) + " grid " +
                         std::to_string(grid) + " touched " +
                         std::to_string(touched));
            KernelResult got = exec.run(kd, fastStart);
            RefResult want = refRun(refCfg, kd, refStart);
            ASSERT_EQ(got.endTick, want.end);
            ASSERT_EQ(got.stallTime, want.stall);
            ASSERT_EQ(got.faults, want.faults);
            stalledLaunches += got.stallTime > 0;
            fastStart = got.endTick;
            refStart = want.end;
        }
        fast.engine.flushTrace();
        ref.engine.flushTrace();
        EXPECT_EQ(fast.stats(), ref.stats()) << "trial " << trial;
        EXPECT_EQ(loopEvents(fast.tracer), loopEvents(ref.tracer))
            << "trial " << trial;
    }
    EXPECT_GT(stalledLaunches, 10u);
    EXPECT_GT(evictingWorlds, 10u);
}

/** How a block's chunks stand against the quiet path. */
struct BlockView
{
    bool quietAtStart = true; //!< every chunk a quiet hit at start
    bool quietByDemand = true; //!< ... by the first demanding group
    bool pendingPrefetch = false; //!< some chunk awaits its first demand
};

BlockView
viewBlock(const UvmWorld &world, const DemandMap &map, std::uint64_t b,
          Tick start, Tick perGroupCompute)
{
    std::vector<ChunkSpan> spans(map.uses().size());
    map.blockSpans(b, spans);
    Tick by = start + map.nextDemandGroup(spans, 0) * perGroupCompute;
    BlockView view;
    for (std::size_t u = 0; u < spans.size(); ++u) {
        std::size_t r = map.uses()[u].rangeId;
        for (std::uint64_t c = spans[u].lo; c < spans[u].hi; ++c) {
            std::uint64_t chunk = map.chunkAt(u, b, c);
            view.quietAtStart &= world.engine.quietHit(r, chunk, start);
            view.quietByDemand &= world.engine.quietHit(r, chunk, by);
            // Resident, yet never a quiet hit: a pending prefetch.
            view.pendingPrefetch |=
                world.table.range(r).state(chunk) ==
                    ChunkState::DeviceResident &&
                !world.engine.quietHit(r, chunk, maxTick - 1);
        }
    }
    return view;
}

/**
 * Launches built for the quiet path (blocks whose every chunk is a
 * side-effect-free resident hit skip the event queue). The worlds
 * never evict, and a mix of blocks sits at each launch's first wave:
 *
 *  - quiet blocks;
 *  - blocks holding a speculative prefetch that awaits its first
 *    demand (Stream and Tree prefetchers), which must take the
 *    event path so that demand counts the prefetch useful;
 *  - blocks whose chunk is still in flight at block start but ready
 *    by the first demanding group, which stay quiet;
 *  - launches that never stall yet mix quiet blocks and event-path
 *    blocks in their first wave, so quiet finishes from the ring
 *    and event-path finishes from the heap fall due at the same
 *    tick.
 *
 * Three launches of one kernel run per world; every launch must
 * match the per-group reference.
 */
TEST(DemandDrivenLoop, QuietBlocksMatchPerGroupReference)
{
    std::mt19937_64 rng(20261018);
    const PrefetcherKind prefetchers[] = {
        PrefetcherKind::Stream, PrefetcherKind::Tree,
        PrefetcherKind::None};
    const TransferMode modes[] = {TransferMode::Uvm,
                                  TransferMode::UvmPrefetchAsync};
    const Tick starts[] = {microseconds(3), microseconds(150),
                           milliseconds(2)};
    std::uint64_t quiet = 0;
    std::uint64_t quietAfterArrival = 0;
    std::uint64_t pendingPrefetch = 0;
    std::uint64_t tiedFinishes = 0;
    for (int trial = 0; trial < 48; ++trial) {
        UvmConfig uvmCfg;
        uvmCfg.demandPrefetcher = prefetchers[trial % 3];

        std::size_t nBuffers = 1 + rng() % 3;
        std::vector<Bytes> bytes;
        for (std::size_t i = 0; i < nBuffers; ++i)
            bytes.push_back((8 + rng() % 56) * uvmCfg.chunkBytes);

        std::size_t nUses = 1 + rng() % 3;
        std::vector<KernelBufferUse> uses;
        std::uint64_t touched = 0;
        for (std::size_t u = 0; u < nUses; ++u) {
            KernelBufferUse use{
                rng() % nBuffers,
                allAccessPatterns[rng() % allAccessPatterns.size()],
                true, rng() % 2 == 0, rng() % 2 ? 1.0 : 0.5};
            touched += static_cast<std::uint64_t>(
                std::ceil(static_cast<double>(bytes[use.bufferId]) /
                          static_cast<double>(uvmCfg.chunkBytes) *
                          use.touchedFraction));
            uses.push_back(use);
        }
        std::uint64_t grid = touched * (1 + rng() % 3) + rng() % 4;
        KernelDescriptor kd = makeStreamKernel(
            "q" + std::to_string(trial), grid, 128, grid * kib(64),
            kib(16), 4, 8.0, 4.0, 0.5, 1.0);
        kd.buffers = uses;
        // Every fourth world fills its buffers long before the
        // launch, so nothing stalls. One more buffer, which no use
        // touches, stays cold and keeps the event loop running.
        bool filled = trial % 4 == 3;
        std::size_t warmBuffers = bytes.size();
        if (filled)
            bytes.push_back(uvmCfg.chunkBytes);

        KernelExecConfig cfg;
        cfg.mode = modes[rng() % 2];
        cfg.bufferBytes = bytes;
        cfg.maxChunkGroupsPerBlock =
            2 + static_cast<std::uint32_t>(rng() % 7);

        UvmWorld fast(uvmCfg, gib(40), bytes);
        UvmWorld ref(uvmCfg, gib(40), bytes);
        // Fault a stride of chunks at tick 0: the prefetchers bring
        // speculative neighbours along, and the later faults are
        // still in flight when the launch starts. Filled worlds then
        // fault every chunk still missing.
        std::uint64_t stride = 2 + rng() % 3;
        for (std::size_t r = 0; r < warmBuffers; ++r) {
            std::uint64_t chunks = bytes[r] / uvmCfg.chunkBytes;
            for (std::uint64_t c = rng() % stride; c < chunks;
                 c += stride) {
                fast.engine.requestChunk(fast.rangeIds[r], c, 0);
                ref.engine.requestChunk(ref.rangeIds[r], c, 0);
            }
            for (std::uint64_t c = 0; c < chunks && filled; ++c) {
                if (fast.table.range(fast.rangeIds[r]).state(c) ==
                    ChunkState::DeviceResident)
                    continue;
                fast.engine.requestChunk(fast.rangeIds[r], c, 0);
                ref.engine.requestChunk(ref.rangeIds[r], c, 0);
            }
        }

        KernelExecConfig fastCfg = cfg;
        fastCfg.uvm = &fast.engine;
        fastCfg.bufferRangeIds = fast.rangeIds;
        fastCfg.tracer = &fast.tracer;
        KernelExecConfig refCfg = cfg;
        refCfg.uvm = &ref.engine;
        refCfg.bufferRangeIds = ref.rangeIds;
        refCfg.tracer = &ref.tracer;

        KernelExecutor exec(fastCfg);
        KernelStaticEstimate est = exec.estimateResident(kd);
        std::uint64_t slots = refSlots(cfg, kd, est);
        DemandMap map(kd, bytes, uvmCfg.chunkBytes,
                      cfg.maxChunkGroupsPerBlock, fast.rangeIds);
        Tick perGroupCompute =
            std::max<Tick>(est.blockTimePs / map.groups(), 1);

        Tick fastStart = filled ? milliseconds(50) : starts[trial % 3];
        Tick refStart = fastStart;
        for (int launch = 0; launch < 3; ++launch) {
            SCOPED_TRACE("trial " + std::to_string(trial) + " launch " +
                         std::to_string(launch) + " grid " +
                         std::to_string(grid) + " touched " +
                         std::to_string(touched));
            Tick launchDone = fastStart + cfg.gpu.kernelLaunchOverhead;
            bool eventLoop = !fast.engine.allRangesResident() ||
                             fast.engine.latestReadyTick() > launchDone;
            bool anyQuiet = false;
            bool anyEventPath = false;
            for (std::uint64_t b = 0; b < slots && eventLoop; ++b) {
                BlockView view = viewBlock(fast, map, b, launchDone,
                                           perGroupCompute);
                quiet += view.quietByDemand;
                quietAfterArrival +=
                    view.quietByDemand && !view.quietAtStart;
                pendingPrefetch += view.pendingPrefetch;
                anyQuiet |= view.quietByDemand;
                anyEventPath |= !view.quietByDemand;
            }
            KernelResult got = exec.run(kd, fastStart);
            RefResult want = refRun(refCfg, kd, refStart);
            ASSERT_EQ(got.endTick, want.end);
            ASSERT_EQ(got.stallTime, want.stall);
            ASSERT_EQ(got.faults, want.faults);
            // No block stalled, so every first-wave block finished one
            // block time after the launch.
            tiedFinishes += anyQuiet && anyEventPath && got.stallTime == 0;
            fastStart = got.endTick;
            refStart = want.end;
        }
        fast.engine.flushTrace();
        ref.engine.flushTrace();
        EXPECT_EQ(fast.stats(), ref.stats()) << "trial " << trial;
        EXPECT_EQ(loopEvents(fast.tracer), loopEvents(ref.tracer))
            << "trial " << trial;
    }
    EXPECT_GT(quiet, 100u);
    EXPECT_GT(quietAfterArrival, 0u);
    EXPECT_GT(pendingPrefetch, 10u);
    EXPECT_GT(tiedFinishes, 0u);
}

} // namespace
} // namespace uvmasync
