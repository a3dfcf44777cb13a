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
 * heap node and no hash index. A chunk is linked at most once.
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
     * is off.
     */
    void reserveRange(std::size_t rangeId, std::uint64_t chunkCount);

    /**
     * Note a chunk arriving on the device (appends to LRU tail).
     * Call evictVictim() first until fits() holds. Panics if the
     * chunk is already linked.
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
    static constexpr std::uint32_t kNil = UINT32_MAX;

    /** A (range, chunk) coordinate in links_; kNil = no chunk. */
    struct Slot
    {
        std::uint32_t range = kNil;
        std::uint32_t chunk = kNil;

        bool operator==(const Slot &o) const
        {
            return range == o.range && chunk == o.chunk;
        }
    };

    /** One chunk's LRU neighbours and its resident size. */
    struct Link
    {
        Slot prev;
        Slot next;
        Bytes bytes = 0;
    };

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
