#include "mem/page_table.hh"

#include <utility>

#include "common/logging.hh"

namespace uvmasync
{

ManagedRange::ManagedRange(std::string name, Bytes bytes, Bytes chunkBytes)
    : name_(std::move(name)), bytes_(bytes), chunkBytes_(chunkBytes)
{
    UVMASYNC_ASSERT(bytes_ > 0, "%s: empty managed range", name_.c_str());
    UVMASYNC_ASSERT(chunkBytes_ > 0, "%s: zero chunk size", name_.c_str());
    ChunkIndex chunks = (bytes_ + chunkBytes_ - 1) / chunkBytes_;
    states_.assign(chunks, ChunkState::HostOnly);
    dirty_.assign(chunks, false);
}

Bytes
ManagedRange::chunkSize(ChunkIndex c) const
{
    UVMASYNC_ASSERT(c < chunkCount(), "%s: chunk %llu out of range",
                    name_.c_str(), static_cast<unsigned long long>(c));
    if (c + 1 == chunkCount()) {
        Bytes tail = bytes_ % chunkBytes_;
        return tail == 0 ? chunkBytes_ : tail;
    }
    return chunkBytes_;
}

ChunkState
ManagedRange::state(ChunkIndex c) const
{
    UVMASYNC_ASSERT(c < chunkCount(), "%s: chunk %llu out of range",
                    name_.c_str(), static_cast<unsigned long long>(c));
    return states_[c];
}

void
ManagedRange::setState(ChunkIndex c, ChunkState s)
{
    UVMASYNC_ASSERT(c < chunkCount(), "%s: chunk %llu out of range",
                    name_.c_str(), static_cast<unsigned long long>(c));
    states_[c] = s;
}

bool
ManagedRange::dirty(ChunkIndex c) const
{
    UVMASYNC_ASSERT(c < chunkCount(), "%s: chunk %llu out of range",
                    name_.c_str(), static_cast<unsigned long long>(c));
    return dirty_[c];
}

void
ManagedRange::setDirty(ChunkIndex c, bool d)
{
    UVMASYNC_ASSERT(c < chunkCount(), "%s: chunk %llu out of range",
                    name_.c_str(), static_cast<unsigned long long>(c));
    dirty_[c] = d;
}

Bytes
ManagedRange::residentBytes() const
{
    Bytes total = 0;
    for (ChunkIndex c = 0; c < chunkCount(); ++c) {
        if (states_[c] == ChunkState::DeviceResident)
            total += chunkSize(c);
    }
    return total;
}

void
ManagedRange::reset()
{
    states_.assign(states_.size(), ChunkState::HostOnly);
    dirty_.assign(dirty_.size(), false);
}

PageTable::PageTable(std::string name) : SimObject(std::move(name)) {}

std::size_t
PageTable::addRange(std::string bufName, Bytes bytes, Bytes chunkBytes)
{
    ranges_.emplace_back(std::move(bufName), bytes, chunkBytes);
    return ranges_.size() - 1;
}

void
PageTable::clearRanges()
{
    ranges_.clear();
}

ManagedRange &
PageTable::range(std::size_t id)
{
    UVMASYNC_ASSERT(id < ranges_.size(), "range %zu out of bounds", id);
    return ranges_[id];
}

const ManagedRange &
PageTable::range(std::size_t id) const
{
    UVMASYNC_ASSERT(id < ranges_.size(), "range %zu out of bounds", id);
    return ranges_[id];
}

void
PageTable::recordMigration(bool toDevice, Bytes bytes)
{
    if (toDevice) {
        ++migToDev_;
        bytesToDev_ += bytes;
    } else {
        ++migToHost_;
        bytesToHost_ += bytes;
    }
}

void
PageTable::exportStats(StatMap &out) const
{
    putStat(out, "faults", static_cast<double>(faults_));
    putStat(out, "migrations_to_device", static_cast<double>(migToDev_));
    putStat(out, "migrations_to_host", static_cast<double>(migToHost_));
    putStat(out, "bytes_to_device", static_cast<double>(bytesToDev_));
    putStat(out, "bytes_to_host", static_cast<double>(bytesToHost_));
}

void
PageTable::resetStats()
{
    faults_ = 0;
    migToDev_ = 0;
    migToHost_ = 0;
    bytesToDev_ = 0;
    bytesToHost_ = 0;
}

} // namespace uvmasync
