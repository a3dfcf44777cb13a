#include "gpu/demand_map.hh"

#include <algorithm>
#include <cmath>

namespace uvmasync
{

namespace
{

/** Knuth multiplicative hash onto [0, n.divisor()). */
std::uint64_t
permuteIndex(std::uint64_t i, const Divider &n)
{
    return n.remainder(i * 2654435761ull + 0x9e3779b9ull);
}

} // namespace

DemandMap::DemandMap(const KernelDescriptor &kd,
                     const std::vector<Bytes> &bufferBytes,
                     Bytes chunkBytes, std::uint64_t groups,
                     const std::vector<std::size_t> &rangeIds)
    : blocks_(std::max<std::uint64_t>(1, kd.gridBlocks)),
      groups_(std::max<std::uint64_t>(1, groups)), blocksDiv_(blocks_)
{
    for (const KernelBufferUse &use : kd.buffers) {
        if (use.bufferId >= bufferBytes.size())
            continue;
        Bytes bytes = bufferBytes[use.bufferId];
        std::uint64_t chunks = (bytes + chunkBytes - 1) / chunkBytes;
        auto touched = static_cast<std::uint64_t>(
            std::ceil(static_cast<double>(chunks) *
                      std::clamp(use.touchedFraction, 0.0, 1.0)));
        if (touched == 0)
            continue;
        uses_.push_back(Use{use.bufferId,
                            rangeIds.empty() ? use.bufferId
                                             : rangeIds[use.bufferId],
                            use.pattern, chunks, touched});
        touchedDivs_.emplace_back(touched);
    }
}

ChunkSpan
DemandMap::blockSpan(std::size_t u, std::uint64_t b) const
{
    const Use &use = uses_[u];
    std::uint64_t pos = b;
    if (use.pattern == AccessPattern::Irregular)
        pos = permuteIndex(b, blocksDiv_);
    ChunkSpan span{blocksDiv_.quotient(pos * use.touched),
                   blocksDiv_.quotient((pos + 1) * use.touched)};
    if (span.hi <= span.lo)
        span.hi = span.lo + 1;
    return span;
}

void
DemandMap::blockSpans(std::uint64_t b, std::span<ChunkSpan> out) const
{
    for (std::size_t u = 0; u < uses_.size(); ++u)
        out[u] = blockSpan(u, b);
}

ChunkSpan
DemandMap::groupSpan(ChunkSpan block, std::uint64_t g) const
{
    std::uint64_t len = block.hi - block.lo;
    return ChunkSpan{block.lo + g * len / groups_,
                     block.lo + (g + 1) * len / groups_};
}

std::uint64_t
DemandMap::chunkAt(std::size_t u, std::uint64_t b,
                   std::uint64_t c) const
{
    if (uses_[u].pattern == AccessPattern::Random)
        return permuteIndex(c * blocks_ + b, touchedDivs_[u]);
    return c;
}

std::uint64_t
DemandMap::nextDemandGroup(std::span<const ChunkSpan> spans,
                           std::uint64_t g) const
{
    // Group h of a span of length len covers
    // [floor(h len / G), floor((h+1) len / G)). Groups from g on start
    // at k = floor(g len / G) until one ends past k, which first
    // happens at h = ceil((k+1) G / len) - 1 (g itself when len >= G).
    std::uint64_t next = groups_;
    if (g >= groups_)
        return next;
    for (const ChunkSpan &span : spans) {
        std::uint64_t len = span.hi - span.lo;
        if (len == 0)
            continue;
        std::uint64_t k = g * len / groups_;
        next = std::min(next, ((k + 1) * groups_ - 1) / len);
    }
    return next;
}

} // namespace uvmasync
