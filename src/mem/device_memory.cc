#include "mem/device_memory.hh"

#include <algorithm>

#include "common/logging.hh"

namespace uvmasync
{

DeviceMemory::DeviceMemory(std::string name, Bytes capacity,
                           Bandwidth bandwidth)
    : SimObject(std::move(name)), capacity_(capacity),
      bandwidth_(bandwidth)
{
    UVMASYNC_ASSERT(capacity_ > 0, "%s: zero capacity",
                    this->name().c_str());
    UVMASYNC_ASSERT(bandwidth_.valid(), "%s: zero bandwidth",
                    this->name().c_str());
}

void
DeviceMemory::setLruTracking(bool enabled)
{
    trackLru_ = enabled;
    if (!enabled)
        dropLinks();
}

void
DeviceMemory::dropLinks()
{
    links_ = {};
    ranges_.clear();
    blocks_.clear();
    head_ = kNil;
    tail_ = kNil;
}

void
DeviceMemory::reserveRange(std::size_t rangeId, std::uint64_t chunkCount,
                           Bytes chunkBytes)
{
    if (!trackLru_)
        return;
    UVMASYNC_ASSERT(rangeId < kNilRange && chunkCount <= kNil,
                    "%s: range %zu of %llu chunks exceeds the LRU "
                    "index",
                    name().c_str(), rangeId,
                    static_cast<unsigned long long>(chunkCount));
    if (ranges_.size() <= rangeId)
        ranges_.resize(rangeId + 1);
    if (ranges_[rangeId].size < chunkCount)
        growRange(rangeId, chunkCount);
    if (ranges_[rangeId].chunkBytes == kUnsized)
        ranges_[rangeId].chunkBytes = chunkBytes;
}

void
DeviceMemory::growRange(std::size_t rangeId, std::uint64_t chunkCount)
{
    RangeLinks &range = ranges_[rangeId];
    // The block at the end of links_ grows in place.
    if (range.size > 0 && range.base + range.size == links_.size()) {
        UVMASYNC_ASSERT(range.base + chunkCount < kNil,
                        "%s: %llu links exceed the LRU index",
                        name().c_str(),
                        static_cast<unsigned long long>(range.base +
                                                        chunkCount));
        links_.resize(range.base + chunkCount);
        range.size = static_cast<std::uint32_t>(chunkCount);
        return;
    }
    // Any other block moves to the end, at twice its size when it had
    // links (insert() without a reservation grows a range one chunk
    // at a time). Its links get new ids, so the list is relinked in
    // its old order.
    std::uint64_t size =
        std::max<std::uint64_t>(chunkCount, 2 * std::uint64_t{range.size});
    UVMASYNC_ASSERT(links_.size() + size < kNil,
                    "%s: %llu links exceed the LRU index", name().c_str(),
                    static_cast<unsigned long long>(links_.size() + size));
    std::vector<std::pair<std::uint16_t, std::uint32_t>> order;
    if (range.size > 0) {
        for (std::uint32_t id = head_; id != kNil; id = links_[id].next)
            order.push_back(locate(id));
        std::fill_n(links_.begin() + range.base, range.size, Link{});
        blocks_.erase(std::find(
            blocks_.begin(), blocks_.end(),
            std::pair{range.base, static_cast<std::uint16_t>(rangeId)}));
    }
    range.base = static_cast<std::uint32_t>(links_.size());
    range.size = static_cast<std::uint32_t>(size);
    links_.resize(range.base + size);
    blocks_.emplace_back(range.base, static_cast<std::uint16_t>(rangeId));
    if (order.empty())
        return;
    head_ = kNil;
    tail_ = kNil;
    for (auto [r, c] : order)
        pushBack(ranges_[r].base + c);
}

std::uint32_t
DeviceMemory::linkedId(std::size_t rangeId, std::uint64_t chunkIndex) const
{
    if (rangeId >= ranges_.size() || chunkIndex >= ranges_[rangeId].size)
        return kNil;
    auto id = static_cast<std::uint32_t>(ranges_[rangeId].base + chunkIndex);
    // Only the head of a non-empty list has no predecessor.
    if (links_[id].prev != kNil || head_ == id)
        return id;
    return kNil;
}

std::pair<std::uint16_t, std::uint32_t>
DeviceMemory::locate(std::uint32_t id) const
{
    auto it = std::upper_bound(
        blocks_.begin(), blocks_.end(), id,
        [](std::uint32_t v, const auto &block) { return v < block.first; });
    UVMASYNC_ASSERT(it != blocks_.begin(), "%s: link %u has no range",
                    name().c_str(), id);
    --it;
    return {it->second, id - it->first};
}

void
DeviceMemory::unlink(std::uint32_t id)
{
    Link &link = links_[id];
    if (link.prev == kNil)
        head_ = link.next;
    else
        links_[link.prev].next = link.next;
    if (link.next == kNil)
        tail_ = link.prev;
    else
        links_[link.next].prev = link.prev;
    link = Link{};
}

void
DeviceMemory::pushBack(std::uint32_t id)
{
    Link &link = links_[id];
    link.prev = tail_;
    link.next = kNil;
    if (tail_ == kNil)
        head_ = id;
    else
        links_[tail_].next = id;
    tail_ = id;
}

void
DeviceMemory::insert(ResidentChunk chunk)
{
    UVMASYNC_ASSERT(fits(chunk.bytes),
                    "%s: inserting %llu bytes would oversubscribe "
                    "(resident %llu / %llu)",
                    name().c_str(),
                    static_cast<unsigned long long>(chunk.bytes),
                    static_cast<unsigned long long>(residentBytes_),
                    static_cast<unsigned long long>(capacity_));
    if (trackLru_) {
        UVMASYNC_ASSERT(chunk.bytes <= UINT32_MAX,
                        "%s: chunk of %llu bytes exceeds the LRU "
                        "link's 4 GiB limit",
                        name().c_str(),
                        static_cast<unsigned long long>(chunk.bytes));
        UVMASYNC_ASSERT(linkedId(chunk.rangeId, chunk.chunkIndex) == kNil,
                        "%s: chunk (%zu, %llu) inserted twice",
                        name().c_str(), chunk.rangeId,
                        static_cast<unsigned long long>(
                            chunk.chunkIndex));
        reserveRange(chunk.rangeId, chunk.chunkIndex + 1, chunk.bytes);
        RangeLinks &range = ranges_[chunk.rangeId];
        if (chunk.bytes != range.chunkBytes) {
            range.odd.emplace_back(
                static_cast<std::uint32_t>(chunk.chunkIndex),
                static_cast<std::uint32_t>(chunk.bytes));
        }
        pushBack(static_cast<std::uint32_t>(range.base + chunk.chunkIndex));
    }
    residentBytes_ += chunk.bytes;
}

void
DeviceMemory::touch(std::size_t rangeId, std::uint64_t chunkIndex)
{
    if (!trackLru_)
        return;
    std::uint32_t id = linkedId(rangeId, chunkIndex);
    if (id == kNil || id == tail_)
        return;
    unlink(id);
    pushBack(id);
}

ResidentChunk
DeviceMemory::evictVictim()
{
    UVMASYNC_ASSERT(trackLru_, "%s: eviction requires LRU tracking",
                    name().c_str());
    UVMASYNC_ASSERT(head_ != kNil, "%s: eviction with nothing resident",
                    name().c_str());
    std::uint32_t id = head_;
    auto [rangeId, chunk] = locate(id);
    RangeLinks &range = ranges_[rangeId];
    ResidentChunk victim{rangeId, chunk, range.chunkBytes};
    for (std::size_t i = 0; i < range.odd.size(); ++i) {
        if (range.odd[i].first == chunk) {
            victim.bytes = range.odd[i].second;
            range.odd[i] = range.odd.back();
            range.odd.pop_back();
            break;
        }
    }
    unlink(id);
    UVMASYNC_ASSERT(residentBytes_ >= victim.bytes,
                    "%s: resident byte accounting underflow",
                    name().c_str());
    residentBytes_ -= victim.bytes;
    ++evictions_;
    evictedBytes_ += victim.bytes;
    return victim;
}

void
DeviceMemory::clear()
{
    dropLinks();
    residentBytes_ = 0;
}

void
DeviceMemory::exportStats(StatMap &out) const
{
    putStat(out, "resident_bytes", static_cast<double>(residentBytes_));
    putStat(out, "evictions", static_cast<double>(evictions_));
    putStat(out, "evicted_bytes", static_cast<double>(evictedBytes_));
}

} // namespace uvmasync
