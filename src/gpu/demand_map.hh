/**
 * @file
 * The block-to-chunk demand map of one kernel launch.
 *
 * Under UVM a launch's blocks split each buffer use's touched chunk
 * prefix [0, touched) into per-block spans, and every block issues
 * its span in `groups` consecutive sub-spans (chunk groups) as it
 * progresses through its tiles:
 *
 *  - most patterns give block b the b-th slice of the prefix;
 *  - Irregular walks permute which slice a block owns;
 *  - Random walks keep the slice but hash every chunk index in it
 *    onto the touched prefix.
 *
 * This is the one definition of that mapping. KernelExecutor issues
 * demand from it and the static dataflow (analysis/dataflow.cc)
 * marks demanded chunks from it, so the advisor counts exactly the
 * chunks the simulator requests.
 */

#ifndef UVMASYNC_GPU_DEMAND_MAP_HH
#define UVMASYNC_GPU_DEMAND_MAP_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/divider.hh"
#include "common/types.hh"
#include "gpu/kernel_descriptor.hh"

namespace uvmasync
{

/** Half-open run [lo, hi) of chunk positions. */
struct ChunkSpan
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
};

/**
 * Chunk demand of one launch of a kernel, built once per launch from
 * the descriptor, the job's buffer sizes and the migration chunk
 * size. Pure: every answer is a function of the constructor inputs.
 */
class DemandMap
{
  public:
    /** A buffer use that demands at least one chunk. */
    struct Use
    {
        std::size_t bufferId = 0;
        /** PageTable range of the buffer (bufferId when no range
         * map was given). */
        std::size_t rangeId = 0;
        AccessPattern pattern = AccessPattern::Sequential;
        /** Chunks in the whole buffer. */
        std::uint64_t chunks = 0;
        /** Length of the demanded prefix; 0 < touched <= chunks. */
        std::uint64_t touched = 0;
    };

    /**
     * Map @p kd's buffer uses over buffers of @p bufferBytes at
     * @p chunkBytes granularity, each block issuing its span in
     * @p groups chunk groups. Uses that touch nothing, or that name
     * a buffer outside @p bufferBytes, demand nothing and are left
     * out. @p rangeIds, when given, maps bufferId to PageTable range.
     * @p groups above kMaxGroups panics.
     */
    DemandMap(const KernelDescriptor &kd,
              const std::vector<Bytes> &bufferBytes, Bytes chunkBytes,
              std::uint64_t groups = 1,
              const std::vector<std::size_t> &rangeIds = {});

    /** Demanding uses, in the descriptor's order. */
    const std::vector<Use> &uses() const { return uses_; }

    std::uint64_t blocks() const { return blocks_; }
    std::uint64_t groups() const { return groups_; }

    /** Block @p b's span of use @p u's touched prefix; never empty. */
    ChunkSpan blockSpan(std::size_t u, std::uint64_t b) const;

    /** Fill @p out (one entry per use) with block @p b's spans. */
    void blockSpans(std::uint64_t b, std::span<ChunkSpan> out) const;

    /** Group @p g's share of a block span (empty for some groups
     * when the span is shorter than groups()). */
    ChunkSpan groupSpan(ChunkSpan block, std::uint64_t g) const;

    /** Buffer chunk that span position @p c of block @p b requests
     * through use @p u (a hash of @p c for Random walks). */
    std::uint64_t chunkAt(std::size_t u, std::uint64_t b,
                          std::uint64_t c) const;

    /**
     * First group at or after @p g whose share of any of @p spans (a
     * block's blockSpans()) is non-empty; groups() when none is.
     */
    std::uint64_t nextDemandGroup(std::span<const ChunkSpan> spans,
                                  std::uint64_t g) const;

    /** Largest groups() a map takes: one bit per group in its
     * masks (the executor uses 8, the dataflow analysis 1). */
    static constexpr std::uint64_t kMaxGroups = 64;

  private:
    /** Knuth multiplicative hash onto [0, n.divisor()). */
    static std::uint64_t
    permuteIndex(std::uint64_t i, const Divider &n)
    {
        return n.remainder(i * 2654435761ull + 0x9e3779b9ull);
    }

    /** The mask of the bits below bit @p g (g <= 64). */
    static std::uint64_t
    bitsBelow(std::uint64_t g)
    {
        return g >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << g) - 1;
    }

    std::vector<Use> uses_;
    std::uint64_t blocks_ = 1;
    std::uint64_t groups_ = 1;
    /** Divides by blocks_, and by each use's touched count (the
     * span and hash arithmetic run per block and per chunk). */
    Divider blocksDiv_;
    std::vector<Divider> touchedDivs_;
    /** Divides by groups_ (groupSpan). */
    Divider groupsDiv_;
    /**
     * Group masks by span length. Entry len < groups_ has bit h set
     * when group h of a span of len chunks is non-empty; entry
     * groups_ has every group's bit set, since a span at least
     * groups_ long leaves no group empty.
     */
    std::vector<std::uint64_t> groupMasks_;
};

// The per-block and per-chunk accessors are inline: the executor's
// quiet check calls them for every block of a launch.

inline ChunkSpan
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

inline void
DemandMap::blockSpans(std::uint64_t b, std::span<ChunkSpan> out) const
{
    for (std::size_t u = 0; u < uses_.size(); ++u)
        out[u] = blockSpan(u, b);
}

inline ChunkSpan
DemandMap::groupSpan(ChunkSpan block, std::uint64_t g) const
{
    std::uint64_t len = block.hi - block.lo;
    return ChunkSpan{block.lo + groupsDiv_.quotient(g * len),
                     block.lo + groupsDiv_.quotient((g + 1) * len)};
}

inline std::uint64_t
DemandMap::chunkAt(std::size_t u, std::uint64_t b,
                   std::uint64_t c) const
{
    if (uses_[u].pattern == AccessPattern::Random)
        return permuteIndex(c * blocks_ + b, touchedDivs_[u]);
    return c;
}

inline std::uint64_t
DemandMap::nextDemandGroup(std::span<const ChunkSpan> spans,
                           std::uint64_t g) const
{
    if (g >= groups_)
        return groups_;
    // The lowest group at or after g that any span's mask holds.
    std::uint64_t demand = 0;
    for (const ChunkSpan &span : spans)
        demand |= groupMasks_[std::min(span.hi - span.lo, groups_)];
    demand &= ~bitsBelow(g);
    return demand ? static_cast<std::uint64_t>(std::countr_zero(demand))
                  : groups_;
}

} // namespace uvmasync

#endif // UVMASYNC_GPU_DEMAND_MAP_HH
