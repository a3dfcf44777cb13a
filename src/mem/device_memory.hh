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
 * one flat link array in which every range owns a block, so
 * insert() and touch() are O(1) and evictVictim() is O(log ranges),
 * with no per-chunk heap node and no hash index. A chunk is linked at
 * most once. A link is two 32-bit ids (8 B), which limits range ids
 * to 16 bits and chunk indices and the sum of the range blocks to 32
 * bits. A linked chunk's size is its range's chunk size unless it
 * differs (a range's short last chunk), in which case it is kept
 * apart; either way it must be below 4 GiB.
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
    Bytes residentBytes() const { return residentBytes_; }

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
     * Size range @p rangeId's link array for @p chunkCount chunks of
     * @p chunkBytes up front, so insert() never grows it and only a
     * chunk of another size is recorded apart. A no-op while LRU
     * tracking is off. Panics, before sizing anything, on a range id
     * of 65535 or more or more than 2^32 - 1 chunks.
     */
    void reserveRange(std::size_t rangeId, std::uint64_t chunkCount,
                      Bytes chunkBytes);

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

    void exportStats(StatMap &out) const override;

  private:
    static constexpr std::uint16_t kNilRange = UINT16_MAX;
    /** No link: no neighbour, or a chunk that is not linked. */
    static constexpr std::uint32_t kNil = UINT32_MAX;
    static constexpr Bytes kUnsized = ~Bytes{0};

    /**
     * One chunk's LRU neighbours as ids into links_, packed to 8 B: a
     * Mega point tracks 2^18 of these, and a batch runs several such
     * points at once.
     */
    struct Link
    {
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };
    static_assert(sizeof(Link) == 8, "LRU link must stay 8 B");

    /** A range's block of links_ and the size its chunks share. */
    struct RangeLinks
    {
        std::uint32_t base = 0; //!< link id of chunk 0
        std::uint32_t size = 0; //!< chunks the block holds
        /** kUnsized until reserveRange() or the first insert(). */
        Bytes chunkBytes = kUnsized;
        /** (chunk, size) of the linked chunks of another size: at
         * most the short last chunk when the size was reserved. */
        std::vector<std::pair<std::uint32_t, std::uint32_t>> odd;
    };

    /** Link id of a linked chunk, or kNil if it is not linked. */
    std::uint32_t linkedId(std::size_t rangeId,
                           std::uint64_t chunkIndex) const;

    /** Range and chunk of link id @p id. */
    std::pair<std::uint16_t, std::uint32_t> locate(std::uint32_t id) const;

    /** Give range @p rangeId a block of at least @p chunkCount links. */
    void growRange(std::size_t rangeId, std::uint64_t chunkCount);

    void unlink(std::uint32_t id);
    void pushBack(std::uint32_t id);

    /** Drop every link (and the link array). */
    void dropLinks();

    Bytes capacity_;
    Bandwidth bandwidth_;
    bool trackLru_ = true;
    Bytes residentBytes_ = 0;
    std::vector<Link> links_;
    std::vector<RangeLinks> ranges_;
    /** (base, range) of every range block, by base. */
    std::vector<std::pair<std::uint32_t, std::uint16_t>> blocks_;
    std::uint32_t head_ = kNil; //!< least recently used
    std::uint32_t tail_ = kNil; //!< most recently used
    std::uint64_t evictions_ = 0;
    Bytes evictedBytes_ = 0;
};

} // namespace uvmasync

#endif // UVMASYNC_MEM_DEVICE_MEMORY_HH
