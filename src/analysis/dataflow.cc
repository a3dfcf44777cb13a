#include "analysis/dataflow.hh"

#include <algorithm>
#include <cmath>

#include "gpu/demand_map.hh"

namespace uvmasync
{

namespace
{

/** Beyond this many per-use block iterations the hashed patterns
 * fall back to a closed-form coverage estimate instead of exact
 * replication (mega 1D grids run to tens of millions of blocks). */
constexpr std::uint64_t exactMappingBudget = 1ull << 22;

Bytes
chunkSize(Bytes bufferBytes, Bytes chunkBytes, std::uint64_t c,
          std::uint64_t chunks)
{
    if (c + 1 < chunks)
        return chunkBytes;
    return bufferBytes - (chunks - 1) * chunkBytes;
}

/**
 * Mark the chunks use @p u of @p map demands into @p bits: the union
 * of the map's block spans, exact up to exactMappingBudget and a
 * closed-form coverage estimate past it.
 */
void
markDemanded(std::vector<std::uint8_t> &bits, const DemandMap &map,
             std::size_t u)
{
    const DemandMap::Use &use = map.uses()[u];
    std::uint64_t touched = use.touched;
    std::uint64_t blocks = map.blocks();

    auto markPrefix = [&](std::uint64_t n) {
        n = std::min(n, touched);
        std::fill(bits.begin(),
                  bits.begin() + static_cast<std::ptrdiff_t>(n), 1);
    };

    if (use.pattern == AccessPattern::Sequential) {
        // Block spans partition [0, touched); union is the prefix.
        markPrefix(touched);
        return;
    }

    if (std::max(blocks, touched) <= exactMappingBudget) {
        for (std::uint64_t b = 0; b < blocks; ++b) {
            ChunkSpan span = map.blockSpan(u, b);
            for (std::uint64_t c = span.lo; c < span.hi; ++c)
                bits[map.chunkAt(u, b, c)] = 1;
        }
        return;
    }

    // Closed-form coverage for giant grids; both estimates stay pure
    // functions of the descriptor, so the analysis is deterministic.
    double t = static_cast<double>(touched);
    double bl = static_cast<double>(blocks);
    double covered = t;
    if (use.pattern == AccessPattern::Random) {
        // R requests hash-distributed over the touched prefix.
        double requests = std::max(t, bl);
        covered = t * (1.0 - std::exp(-requests / t));
    } else {
        // Irregular: distinct block positions under the same hash,
        // each owning a span of the prefix.
        double distinctPos = bl * (1.0 - std::exp(-1.0));
        if (blocks <= touched)
            covered = t * distinctPos / bl;
        else
            covered = t * (1.0 - std::exp(-distinctPos / t));
    }
    markPrefix(static_cast<std::uint64_t>(std::ceil(covered)));
}

Bytes
markedBytes(const std::vector<std::uint8_t> &bits, Bytes bufferBytes,
            Bytes chunkBytes)
{
    std::uint64_t chunks = bits.size();
    Bytes total = 0;
    for (std::uint64_t c = 0; c < chunks; ++c) {
        if (!bits[c])
            continue;
        total += chunkSize(bufferBytes, chunkBytes, c, chunks);
    }
    return total;
}

} // namespace

DataflowSummary
analyzeDataflow(const SystemConfig &system, const Job &job)
{
    DataflowSummary out;
    out.repeats = job.sequenceRepeats ? job.sequenceRepeats : 1;
    out.launchesPerPass = job.kernels.size();
    out.footprint = job.footprint();
    out.hostInitBytes = job.hostInitBytes();
    out.hostConsumedBytes = job.hostConsumedBytes();
    out.deviceCapacity = system.deviceMemoryBytes;
    out.chunkBytes = system.uvm.chunkBytes ? system.uvm.chunkBytes
                                           : kib(256);

    out.buffers.resize(job.buffers.size());
    std::vector<Bytes> bufferBytes(job.buffers.size());
    for (std::size_t i = 0; i < job.buffers.size(); ++i) {
        BufferFlow &bf = out.buffers[i];
        bf.id = i;
        bf.name = job.buffers[i].name;
        bf.bytes = bufferBytes[i] = job.buffers[i].bytes;
        bf.hostInit = job.buffers[i].hostInit;
        bf.hostConsumed = job.buffers[i].hostConsumed;
        bf.chunkCount =
            bf.bytes ? (bf.bytes + out.chunkBytes - 1) / out.chunkBytes
                     : 0;
        if (!bf.hostInit)
            out.populateBytes += bf.bytes;
    }

    // Union-of-demanded bitmap per buffer, built kernel by kernel in
    // launch order so first-demand attribution falls out of the walk.
    std::vector<std::vector<std::uint8_t>> unionBits(
        job.buffers.size());
    for (std::size_t i = 0; i < job.buffers.size(); ++i)
        unionBits[i].assign(out.buffers[i].chunkCount, 0);

    out.kernels.resize(job.kernels.size());
    std::vector<std::uint8_t> scratch;
    for (std::size_t ki = 0; ki < job.kernels.size(); ++ki) {
        const KernelDescriptor &kd = job.kernels[ki];
        KernelFlow &kf = out.kernels[ki];
        kf.name = kd.name;
        kf.chunksByBuffer.assign(job.buffers.size(), 0);
        kf.newChunksByBuffer.assign(job.buffers.size(), 0);
        kf.newBytesByBuffer.assign(job.buffers.size(), 0);

        for (const KernelBufferUse &use : kd.buffers) {
            if (use.bufferId >= job.buffers.size())
                continue; // UAL001 territory; dataflow stays total
            BufferFlow &bf = out.buffers[use.bufferId];
            double tf = std::clamp(use.touchedFraction, 0.0, 1.0);
            bf.usesPerPass += 1;
            bf.read = bf.read || use.read;
            bf.written = bf.written || use.written;
            int k = static_cast<int>(ki);
            if (bf.firstUseKernel < 0)
                bf.firstUseKernel = k;
            bf.lastUseKernel = k;
            if (use.read)
                bf.lastReadKernel = k;
            if (use.written)
                bf.lastWriteKernel = k;
            bf.maxTouchedFraction =
                std::max(bf.maxTouchedFraction, tf);
            kf.workingSetBytes += static_cast<Bytes>(
                static_cast<double>(bf.bytes) * tf);
        }

        // Distinct chunks this kernel demands, per buffer (several
        // uses of one buffer share residency within a launch).
        DemandMap map(kd, bufferBytes, out.chunkBytes);
        std::vector<std::vector<std::size_t>> usesByBuffer(
            job.buffers.size());
        for (std::size_t u = 0; u < map.uses().size(); ++u)
            usesByBuffer[map.uses()[u].bufferId].push_back(u);

        for (std::size_t bi = 0; bi < job.buffers.size(); ++bi) {
            if (usesByBuffer[bi].empty())
                continue;
            BufferFlow &bf = out.buffers[bi];
            scratch.assign(bf.chunkCount, 0);
            for (std::size_t u : usesByBuffer[bi])
                markDemanded(scratch, map, u);
            for (std::uint64_t c = 0; c < bf.chunkCount; ++c) {
                if (!scratch[c])
                    continue;
                ++kf.demandRequests;
                ++kf.chunksByBuffer[bi];
                ++bf.requestChunksPerPass;
                Bytes csz = chunkSize(bf.bytes, out.chunkBytes, c,
                                      bf.chunkCount);
                kf.demandChunkBytes += csz;
                bf.requestBytesPerPass += csz;
                if (!unionBits[bi][c]) {
                    unionBits[bi][c] = 1;
                    ++kf.newDemandChunks;
                    kf.newDemandBytes += csz;
                    ++kf.newChunksByBuffer[bi];
                    kf.newBytesByBuffer[bi] += csz;
                    if (bf.hostInit) {
                        ++kf.newDemandChunksHostInit;
                        kf.newDemandBytesHostInit += csz;
                    }
                }
            }
        }
        out.peakWorkingSetBytes =
            std::max(out.peakWorkingSetBytes, kf.workingSetBytes);
    }

    for (std::size_t i = 0; i < job.buffers.size(); ++i) {
        BufferFlow &bf = out.buffers[i];
        for (std::uint64_t c = 0; c < bf.chunkCount; ++c) {
            if (!unionBits[i][c])
                continue;
            ++bf.demandedChunks;
        }
        bf.demandedBytes =
            markedBytes(unionBits[i], bf.bytes, out.chunkBytes);
        bf.touchedBytes = static_cast<Bytes>(
            static_cast<double>(bf.bytes) * bf.maxTouchedFraction);
        out.touchedFootprintBytes += bf.demandedBytes;
        if (bf.hostInit)
            out.demandFootprintBytes += bf.demandedBytes;

        // Reuse distance: widest gap of other launches' working
        // sets between consecutive uses (wrapping across passes).
        std::vector<std::size_t> useKernels;
        for (std::size_t ki = 0; ki < job.kernels.size(); ++ki) {
            for (const KernelBufferUse &use :
                 job.kernels[ki].buffers) {
                if (use.bufferId == i) {
                    useKernels.push_back(ki);
                    break;
                }
            }
        }
        bool reused = useKernels.size() > 1 ||
                      (!useKernels.empty() && out.repeats > 1);
        if (reused) {
            Bytes maxGap = 0;
            for (std::size_t u = 0; u + 1 < useKernels.size(); ++u) {
                Bytes gap = 0;
                for (std::size_t ki = useKernels[u] + 1;
                     ki < useKernels[u + 1]; ++ki)
                    gap += out.kernels[ki].workingSetBytes;
                maxGap = std::max(maxGap, gap);
            }
            if (out.repeats > 1 && !useKernels.empty()) {
                Bytes wrap = 0;
                for (std::size_t ki = useKernels.back() + 1;
                     ki < job.kernels.size(); ++ki)
                    wrap += out.kernels[ki].workingSetBytes;
                for (std::size_t ki = 0; ki < useKernels.front();
                     ++ki)
                    wrap += out.kernels[ki].workingSetBytes;
                maxGap = std::max(maxGap, wrap);
            }
            bf.reuseDistanceBytes = maxGap;
        }

        // Dead store: the written data is never observed — no host
        // consumption and no later read (a repeat of the sequence
        // re-reads every buffer the sequence reads at all).
        if (bf.written && !bf.hostConsumed) {
            bool readAfterWrite =
                bf.read && (out.repeats > 1 ||
                            bf.lastReadKernel > bf.lastWriteKernel);
            bf.deadAfterLastWrite = !readAfterWrite;
        }
    }

    if (out.deviceCapacity > 0) {
        out.oversubscription =
            static_cast<double>(out.footprint) /
            static_cast<double>(out.deviceCapacity);
        out.touchedOversubscription =
            static_cast<double>(out.touchedFootprintBytes) /
            static_cast<double>(out.deviceCapacity);
    }
    if (out.footprint > 0) {
        double ws = 0.0;
        for (const KernelFlow &kf : out.kernels)
            ws += static_cast<double>(kf.workingSetBytes);
        out.accessDensity = ws / static_cast<double>(out.footprint);
    }
    return out;
}

} // namespace uvmasync
