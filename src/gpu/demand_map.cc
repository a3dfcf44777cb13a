#include "gpu/demand_map.hh"

#include <cmath>

#include "common/logging.hh"

namespace uvmasync
{

DemandMap::DemandMap(const KernelDescriptor &kd,
                     const std::vector<Bytes> &bufferBytes,
                     Bytes chunkBytes, std::uint64_t groups,
                     const std::vector<std::size_t> &rangeIds)
    : blocks_(std::max<std::uint64_t>(1, kd.gridBlocks)),
      groups_(std::max<std::uint64_t>(1, groups)), blocksDiv_(blocks_),
      groupsDiv_(groups_)
{
    if (groups_ > kMaxGroups) {
        panic("DemandMap: %llu chunk groups per block, more than %llu",
              static_cast<unsigned long long>(groups_),
              static_cast<unsigned long long>(kMaxGroups));
    }
    groupMasks_.assign(groups_ + 1, 0);
    for (std::uint64_t len = 1; len < groups_; ++len) {
        for (std::uint64_t h = 0; h < groups_; ++h) {
            if ((h + 1) * len / groups_ > h * len / groups_)
                groupMasks_[len] |= std::uint64_t{1} << h;
        }
    }
    groupMasks_[groups_] = bitsBelow(groups_);
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

} // namespace uvmasync
