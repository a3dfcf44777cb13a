#include "mem/device_memory.hh"

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
    links_.clear();
    head_ = Slot{};
    tail_ = Slot{};
}

void
DeviceMemory::reserveRange(std::size_t rangeId, std::uint64_t chunkCount)
{
    if (!trackLru_)
        return;
    UVMASYNC_ASSERT(rangeId < kNilRange && chunkCount <= kNilChunk,
                    "%s: range %zu of %llu chunks exceeds the LRU "
                    "index",
                    name().c_str(), rangeId,
                    static_cast<unsigned long long>(chunkCount));
    // Growing an empty array allocates exactly chunkCount links; a
    // non-empty one (insert() without a hint) grows geometrically.
    if (links_.size() <= rangeId)
        links_.resize(rangeId + 1);
    if (links_[rangeId].size() < chunkCount)
        links_[rangeId].resize(chunkCount);
}

DeviceMemory::Slot
DeviceMemory::linkedSlot(std::size_t rangeId, std::uint64_t chunkIndex)
{
    if (rangeId >= links_.size() || chunkIndex >= links_[rangeId].size())
        return Slot{};
    Slot s{static_cast<std::uint16_t>(rangeId),
           static_cast<std::uint32_t>(chunkIndex)};
    // Only the head of a non-empty list has no predecessor.
    if (at(s).prevRange != kNilRange || head_ == s)
        return s;
    return Slot{};
}

void
DeviceMemory::unlink(Slot s)
{
    Link &link = at(s);
    if (link.prevRange == kNilRange)
        head_ = link.next();
    else
        at(link.prev()).setNext(link.next());
    if (link.nextRange == kNilRange)
        tail_ = link.prev();
    else
        at(link.next()).setPrev(link.prev());
    link.setPrev(Slot{});
    link.setNext(Slot{});
}

void
DeviceMemory::pushBack(Slot s)
{
    Link &link = at(s);
    link.setPrev(tail_);
    link.setNext(Slot{});
    if (tail_.range == kNilRange)
        head_ = s;
    else
        at(tail_).setNext(s);
    tail_ = s;
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
        UVMASYNC_ASSERT(linkedSlot(chunk.rangeId, chunk.chunkIndex)
                                .range == kNilRange,
                        "%s: chunk (%zu, %llu) inserted twice",
                        name().c_str(), chunk.rangeId,
                        static_cast<unsigned long long>(
                            chunk.chunkIndex));
        reserveRange(chunk.rangeId, chunk.chunkIndex + 1);
        Slot s{static_cast<std::uint16_t>(chunk.rangeId),
               static_cast<std::uint32_t>(chunk.chunkIndex)};
        at(s).bytes = static_cast<std::uint32_t>(chunk.bytes);
        pushBack(s);
    }
    residentBytes_ += chunk.bytes;
}

void
DeviceMemory::touch(std::size_t rangeId, std::uint64_t chunkIndex)
{
    if (!trackLru_)
        return;
    Slot s = linkedSlot(rangeId, chunkIndex);
    if (s.range == kNilRange || s == tail_)
        return;
    unlink(s);
    pushBack(s);
}

ResidentChunk
DeviceMemory::evictVictim()
{
    UVMASYNC_ASSERT(trackLru_, "%s: eviction requires LRU tracking",
                    name().c_str());
    UVMASYNC_ASSERT(head_.range != kNilRange,
                    "%s: eviction with nothing resident",
                    name().c_str());
    Slot s = head_;
    ResidentChunk victim{s.range, s.chunk, at(s).bytes};
    unlink(s);
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

void
DeviceMemory::resetStats()
{
    evictions_ = 0;
    evictedBytes_ = 0;
}

} // namespace uvmasync
