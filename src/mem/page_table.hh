/**
 * @file
 * Residency tracking for managed (UVM) allocations.
 *
 * UVM migrates data between host and device at a driver-chosen
 * granularity (64 KiB basic blocks on real hardware); the simulator
 * calls that unit a "chunk". A ManagedRange tracks per-chunk residency
 * and dirtiness for one allocation; the PageTable owns all ranges of a
 * device and accumulates fault statistics.
 */

#ifndef UVMASYNC_MEM_PAGE_TABLE_HH
#define UVMASYNC_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/sim_object.hh"

namespace uvmasync
{

/** Residency state of one migration chunk. */
enum class ChunkState : std::uint8_t
{
    HostOnly,       //!< only the host copy is valid
    MigratingToDev, //!< transfer in flight towards the device
    DeviceResident, //!< device copy valid
    MigratingToHost,//!< transfer in flight towards the host
};

/** Identifies a chunk inside a managed range. */
using ChunkIndex = std::uint64_t;

/**
 * Per-allocation chunk residency map.
 */
class ManagedRange
{
  public:
    /**
     * @param name       buffer name for reports
     * @param bytes      allocation size
     * @param chunkBytes migration granularity
     */
    ManagedRange(std::string name, Bytes bytes, Bytes chunkBytes);

    const std::string &name() const { return name_; }
    Bytes bytes() const { return bytes_; }
    Bytes chunkBytes() const { return chunkBytes_; }
    ChunkIndex chunkCount() const { return states_.size(); }

    /** Bytes covered by chunk @p c (the last chunk may be partial). */
    Bytes chunkSize(ChunkIndex c) const;

    ChunkState state(ChunkIndex c) const;
    void setState(ChunkIndex c, ChunkState s);

    bool dirty(ChunkIndex c) const;
    void setDirty(ChunkIndex c, bool d);

    /** Device-resident bytes right now. */
    Bytes residentBytes() const;

    /** Reset every chunk to HostOnly / clean. */
    void reset();

  private:
    std::string name_;
    Bytes bytes_;
    Bytes chunkBytes_;
    std::vector<ChunkState> states_;
    std::vector<bool> dirty_;
};

/**
 * Device-wide residency directory plus fault accounting.
 */
class PageTable : public SimObject
{
  public:
    explicit PageTable(std::string name);

    /** Register a managed allocation; returns its range id. */
    std::size_t addRange(std::string bufName, Bytes bytes,
                         Bytes chunkBytes);

    /** Drop all ranges (allocation freed / experiment reset). */
    void clearRanges();

    std::size_t rangeCount() const { return ranges_.size(); }
    ManagedRange &range(std::size_t id);
    const ManagedRange &range(std::size_t id) const;

    /** Count a GPU far fault (non-resident access). */
    void recordFault() { ++faults_; }

    /** Count a chunk migration in the given direction. */
    void recordMigration(bool toDevice, Bytes bytes);

    void exportStats(StatMap &out) const override;
    void resetStats();

  private:
    std::vector<ManagedRange> ranges_;
    std::uint64_t faults_ = 0;
    std::uint64_t migToDev_ = 0;
    std::uint64_t migToHost_ = 0;
    Bytes bytesToDev_ = 0;
    Bytes bytesToHost_ = 0;
};

} // namespace uvmasync

#endif // UVMASYNC_MEM_PAGE_TABLE_HH
