/**
 * @file
 * GPU global-memory (HBM) model: capacity accounting, bandwidth, and
 * LRU chunk eviction when managed allocations oversubscribe it.
 */

#ifndef UVMASYNC_MEM_DEVICE_MEMORY_HH
#define UVMASYNC_MEM_DEVICE_MEMORY_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "common/units.hh"
#include "sim/sim_object.hh"

namespace uvmasync
{

/** Identifies a resident chunk: (managed range id, chunk index). */
struct ResidentChunk
{
    std::size_t rangeId;
    std::uint64_t chunkIndex;
    Bytes bytes;
};

/**
 * Device HBM: tracks resident bytes, answers "must I evict?" queries
 * and maintains an LRU order over resident chunks for
 * oversubscription studies.
 *
 * The LRU order is an intrusive doubly-linked list threaded through
 * dense per-range link arrays indexed [rangeId][chunkIndex], so
 * insert(), touch() and evictVictim() are O(1) with no per-chunk
 * heap node and no hash index. A chunk is linked at most once. A
 * link is 16 B, which limits range ids to 16 bits and chunk indices
 * and chunk sizes to 32 bits.
 */
class DeviceMemory : public SimObject
{
  public:
    /**
     * @param name      stat name
     * @param capacity  usable HBM bytes
     * @param bandwidth sustained HBM bandwidth
     */
    DeviceMemory(std::string name, Bytes capacity, Bandwidth bandwidth);

    Bytes capacity() const { return capacity_; }
    Bandwidth bandwidth() const { return bandwidth_; }
    Bytes residentBytes() const { return residentBytes_; }
    Bytes freeBytes() const { return capacity_ - residentBytes_; }

    /** True if @p bytes more would fit without eviction. */
    bool fits(Bytes bytes) const { return residentBytes_ + bytes <= capacity_; }

    /**
     * Enable/disable precise LRU bookkeeping. When the working set
     * cannot oversubscribe the device, eviction never happens and the
     * per-access touch() bookkeeping is wasted work; callers disable
     * it for such jobs. Disabling clears the LRU list.
     */
    void setLruTracking(bool enabled);

    bool lruTracking() const { return trackLru_; }

    /**
     * Size range @p rangeId's link array for @p chunkCount chunks up
     * front, so insert() never grows it. A no-op while LRU tracking
     * is off. Panics, before sizing anything, on a range id of
     * 65535 or more or more than 2^32 - 1 chunks.
     */
    void reserveRange(std::size_t rangeId, std::uint64_t chunkCount);

    /**
     * Note a chunk arriving on the device (appends to LRU tail).
     * Call evictVictim() first until fits() holds. Panics if the
     * chunk is already linked or, while LRU tracking is on, if it
     * holds 4 GiB or more.
     */
    void insert(ResidentChunk chunk);

    /**
     * Refresh a chunk's LRU position on access; a no-op for a chunk
     * that is not linked.
     */
    void touch(std::size_t rangeId, std::uint64_t chunkIndex);

    /**
     * Pop the least-recently-used resident chunk for eviction;
     * crashes if nothing is resident.
     */
    ResidentChunk evictVictim();

    /** Forget all residency (free / reset). */
    void clear();

    std::uint64_t evictions() const { return evictions_; }
    Bytes evictedBytes() const { return evictedBytes_; }

    void exportStats(StatMap &out) const override;
    void resetStats() override;

  private:
    static constexpr std::uint16_t kNilRange = UINT16_MAX;
    static constexpr std::uint32_t kNilChunk = UINT32_MAX;

    /** A (range, chunk) coordinate in links_; a nil range = no
     * chunk. */
    struct Slot
    {
        std::uint16_t range = kNilRange;
        std::uint32_t chunk = kNilChunk;

        bool operator==(const Slot &o) const
        {
            return range == o.range && chunk == o.chunk;
        }
    };

    /**
     * One chunk's LRU neighbours and its resident size, packed to
     * 16 B: a Mega point tracks 2^18 of these, and a batch runs
     * several such points at once.
     */
    struct Link
    {
        std::uint32_t prevChunk = kNilChunk;
        std::uint32_t nextChunk = kNilChunk;
        std::uint32_t bytes = 0;
        std::uint16_t prevRange = kNilRange;
        std::uint16_t nextRange = kNilRange;

        Slot prev() const { return Slot{prevRange, prevChunk}; }
        Slot next() const { return Slot{nextRange, nextChunk}; }

        void
        setPrev(Slot s)
        {
            prevRange = s.range;
            prevChunk = s.chunk;
        }

        void
        setNext(Slot s)
        {
            nextRange = s.range;
            nextChunk = s.chunk;
        }
    };
    static_assert(sizeof(Link) == 16, "LRU link must stay 16 B");

    Link &at(Slot s) { return links_[s.range][s.chunk]; }

    /** Slot of a linked chunk, or a nil Slot if it is not linked. */
    Slot linkedSlot(std::size_t rangeId, std::uint64_t chunkIndex);

    void unlink(Slot s);
    void pushBack(Slot s);

    /** Drop every link (and the link arrays). */
    void dropLinks();

    Bytes capacity_;
    Bandwidth bandwidth_;
    bool trackLru_ = true;
    Bytes residentBytes_ = 0;
    std::vector<std::vector<Link>> links_;
    Slot head_; //!< least recently used
    Slot tail_; //!< most recently used
    std::uint64_t evictions_ = 0;
    Bytes evictedBytes_ = 0;
};

} // namespace uvmasync

#endif // UVMASYNC_MEM_DEVICE_MEMORY_HH
