/**
 * @file
 * UVM driver prefetcher model.
 *
 * On a demand miss the driver may speculatively migrate additional
 * chunks. How useful those speculations are depends on the access
 * pattern's regularity — the mechanism behind the paper's "regular
 * workloads benefit from UVM (with prefetch), irregular ones do not"
 * takeaway. One class models the three driver policies, selected by
 * PrefetcherKind:
 *
 *  - None: plain demand paging (the `uvm` configuration).
 *  - Stream: fixed next-8-chunks lookahead.
 *  - Tree: Nvidia-style density prefetcher whose per-range lookahead
 *    doubles on a useful prefetch (up to 32 chunks) and collapses to
 *    2 on a wasted one.
 */

#ifndef UVMASYNC_XFER_PREFETCHER_HH
#define UVMASYNC_XFER_PREFETCHER_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "sim/sim_object.hh"

namespace uvmasync
{

/** A predicted chunk to migrate speculatively. */
struct PrefetchCandidate
{
    std::size_t rangeId;
    std::uint64_t chunkIndex;
};

/** The driver's speculation policy. */
enum class PrefetcherKind
{
    None,
    Stream,
    Tree,
};

/**
 * The driver prefetcher. Tree state is per managed range (rangeId)
 * and is forgotten by resetStats() between runs; None issues nothing
 * and keeps no per-range state.
 */
class Prefetcher : public SimObject
{
  public:
    Prefetcher(std::string name, PrefetcherKind kind)
        : SimObject(std::move(name)), kind_(kind)
    {
    }

    PrefetcherKind kind() const { return kind_; }

    /**
     * React to a demand miss on (@p rangeId, @p chunkIndex) of a range
     * with @p chunkCount chunks: append the chunks to migrate
     * speculatively to @p out (not cleared) and record them issued.
     * Already-resident candidates are filtered by the caller.
     */
    void
    appendCandidates(std::size_t rangeId, std::uint64_t chunkIndex,
                     std::uint64_t chunkCount,
                     std::vector<PrefetchCandidate> &out)
    {
        if (kind_ == PrefetcherKind::None)
            return;
        std::uint32_t dist = kind_ == PrefetcherKind::Stream
                                 ? streamDistance
                                 : treeDistance(rangeId);
        std::size_t before = out.size();
        for (std::uint32_t i = 1; i <= dist; ++i) {
            std::uint64_t next = chunkIndex + i;
            if (next >= chunkCount)
                break;
            out.push_back(PrefetchCandidate{rangeId, next});
        }
        issued_ += out.size() - before;
    }

    /** Feedback: a previously prefetched chunk was actually used. */
    void
    noteUseful(std::size_t rangeId)
    {
        ++useful_;
        if (kind_ == PrefetcherKind::Tree) {
            std::uint32_t &dist = treeDistance(rangeId);
            dist = std::min(treeMaxDistance, dist * 2);
        }
    }

    /** Feedback: a prefetched chunk was evicted or demanded unused. */
    void
    noteWasted(std::size_t rangeId)
    {
        ++wasted_;
        if (kind_ == PrefetcherKind::Tree)
            treeDistance(rangeId) = treeMinDistance;
    }

    /** Fraction of judged prefetches confirmed useful. */
    double accuracy() const;

    void exportStats(StatMap &out) const override;

    /** Clear the counters and the per-range Tree state (new run). */
    void resetStats();

  private:
    static constexpr std::uint32_t streamDistance = 8;
    static constexpr std::uint32_t treeMinDistance = 2;
    static constexpr std::uint32_t treeMaxDistance = 32;

    /** The Tree lookahead of @p rangeId, created at the minimum. */
    std::uint32_t &
    treeDistance(std::size_t rangeId)
    {
        return treeDistance_.try_emplace(rangeId, treeMinDistance)
            .first->second;
    }

    PrefetcherKind kind_;
    std::uint64_t issued_ = 0;
    std::uint64_t useful_ = 0;
    std::uint64_t wasted_ = 0;
    std::unordered_map<std::size_t, std::uint32_t> treeDistance_;
};

} // namespace uvmasync

#endif // UVMASYNC_XFER_PREFETCHER_HH
