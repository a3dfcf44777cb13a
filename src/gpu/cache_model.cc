#include "gpu/cache_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "mem/cache.hh"

namespace uvmasync
{

namespace
{

/** @{ Stream-sampling calibration. */
/** Number of sampled accesses fed through the cache. */
constexpr std::size_t kSampleAccesses = 120000;
/** Residual L1 load traffic left when tiles ride cp.async. */
constexpr double kAsyncResidualLoadFraction = 0.15;
/** L1 share consumed by UVM machinery in managed configurations. */
constexpr double kUvmL1Pollution = 0.12;
/** Extra pollution when the explicit prefetcher is active. */
constexpr double kPrefetchL1Pollution = 0.13;
/** @} */

/** One interleaved source of sampled accesses. */
struct Stream
{
    StreamGenerator gen;
    Addr base;
    bool isStore;
    std::size_t quota;
};

} // namespace

// Aligned to a cache line so that the speed of the L1 replay does not
// depend on where the linker happens to place this hot function.
[[gnu::aligned(64)]] CacheModelResult
simulateL1(const GpuConfig &cfg, const KernelDescriptor &kd,
           const std::vector<Bytes> &bufferBytes, TransferMode mode,
           Bytes sharedCarveout, std::uint64_t seed)
{
    CacheModelResult res;

    bool async = usesAsyncCopy(mode);
    bool uvm = usesUvm(mode);

    // L1 is what the carveout leaves, minus what UVM machinery steals.
    double capacity =
        static_cast<double>(cfg.l1Capacity(sharedCarveout));
    if (uvm)
        capacity *= 1.0 - kUvmL1Pollution;
    if (usesPrefetch(mode))
        capacity *= 1.0 - kPrefetchL1Pollution;

    Bytes granule = cfg.l1LineBytes * cfg.l1Ways;
    auto lines = static_cast<Bytes>(capacity) / granule;
    Bytes effCapacity = std::max<Bytes>(lines, 1) * granule;
    SetAssocCache l1("l1", effCapacity, cfg.l1LineBytes, cfg.l1Ways);

    // Build one sampled stream per (buffer, load/store) pair, with
    // quotas proportional to the traffic each contributes.
    std::vector<Stream> streams;
    double totalWeight = 0.0;
    struct Plan
    {
        AccessPattern pattern;
        Bytes footprint;
        bool isStore;
        double weight;
        std::size_t bufferId;
    };
    std::vector<Plan> plans;

    for (const KernelBufferUse &use : kd.buffers) {
        UVMASYNC_ASSERT(use.bufferId < bufferBytes.size(),
                        "%s: buffer id %zu out of range",
                        kd.name.c_str(), use.bufferId);
        Bytes bytes = bufferBytes[use.bufferId];
        double touched = std::clamp(use.touchedFraction, 0.0, 1.0);
        auto footprint = static_cast<Bytes>(
            static_cast<double>(bytes) * touched);
        if (use.pattern != AccessPattern::Broadcast) {
            // Each SM sees its slice of a partitioned buffer.
            footprint /= std::max<std::uint32_t>(1, cfg.smCount);
        }
        footprint = std::max<Bytes>(footprint, cfg.l1LineBytes * 4);

        if (use.read) {
            Plan p;
            p.pattern = use.pattern;
            p.footprint = footprint;
            p.isStore = false;
            p.weight = static_cast<double>(footprint);
            p.bufferId = use.bufferId;
            if (async && use.stagedThroughShared) {
                // Tile loads ride cp.async and never probe L1; a
                // residual fraction (spills, index loads) remains.
                // Its walk shape is unchanged but its working set is
                // much smaller because the hot data sits in shared.
                p.weight *= kAsyncResidualLoadFraction;
                p.footprint = std::max<Bytes>(
                    p.footprint / 64, cfg.l1LineBytes * 4);
            }
            plans.push_back(p);
            totalWeight += p.weight;
        }
        if (use.written) {
            Plan p;
            p.pattern = use.pattern;
            p.footprint = footprint;
            p.isStore = true;
            p.weight = static_cast<double>(footprint) * 0.5;
            p.bufferId = use.bufferId;
            if (async && use.stagedThroughShared) {
                // Results are staged in shared memory and written
                // back as coalesced, sequential lines.
                p.pattern = AccessPattern::Sequential;
            }
            plans.push_back(p);
            totalWeight += p.weight;
        }
    }

    if (plans.empty() || totalWeight <= 0.0)
        return res;

    std::uint64_t streamSeed = seed;
    for (const Plan &p : plans) {
        auto quota = static_cast<std::size_t>(
            std::ceil(p.weight / totalWeight *
                      static_cast<double>(kSampleAccesses)));
        streams.push_back(Stream{
            StreamGenerator(p.pattern, p.footprint, 4, ++streamSeed),
            static_cast<Addr>(p.bufferId) << 40, p.isStore, quota});
    }

    // Interleave the streams round-robin until every quota drains;
    // this approximates the warp-interleaved issue order of an SM.
    bool progress = true;
    while (progress) {
        progress = false;
        for (Stream &s : streams) {
            if (s.quota == 0)
                continue;
            --s.quota;
            progress = true;
            Addr addr = s.base + s.gen.next();
            l1.access(addr, s.isStore);
        }
    }

    const CacheStats &st = l1.stats();
    res.loadMissRate = st.loadMissRate();
    res.storeMissRate = st.storeMissRate();
    res.loads = st.loads();
    res.stores = st.stores();
    return res;
}

L1Memo::L1Memo(const GpuConfig &gpu, std::vector<Bytes> bufferBytes,
               Bytes sharedCarveout, std::uint64_t seed)
    : gpu_(gpu), bufferBytes_(std::move(bufferBytes)),
      sharedCarveout_(sharedCarveout), seed_(seed)
{
}

CacheModelResult
L1Memo::get(const KernelDescriptor &kd, TransferMode mode)
{
    Key key{mode, kd.buffers};
    auto it = results_.find(key);
    if (it == results_.end()) {
        CacheModelResult res = simulateL1(gpu_, kd, bufferBytes_, mode,
                                          sharedCarveout_, seed_);
        it = results_.emplace(std::move(key), res).first;
    }
    return it->second;
}

bool
L1Memo::matches(const GpuConfig &gpu,
                const std::vector<Bytes> &bufferBytes,
                Bytes sharedCarveout, std::uint64_t seed) const
{
    return gpu == gpu_ && bufferBytes == bufferBytes_ &&
           sharedCarveout == sharedCarveout_ && seed == seed_;
}

} // namespace uvmasync
