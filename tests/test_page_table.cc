/**
 * @file
 * Tests for managed-range residency tracking and the page table.
 */

#include <gtest/gtest.h>

#include "mem/page_table.hh"
#include "stat_of.hh"

namespace uvmasync
{
namespace
{

TEST(ManagedRange, ChunkCountRoundsUp)
{
    ManagedRange r("buf", mib(1) + 1, kib(64));
    EXPECT_EQ(r.chunkCount(), 17u);
    EXPECT_EQ(r.chunkSize(0), kib(64));
    EXPECT_EQ(r.chunkSize(16), 1u); // tail chunk
}

TEST(ManagedRange, ExactMultipleHasFullTail)
{
    ManagedRange r("buf", mib(1), kib(64));
    EXPECT_EQ(r.chunkCount(), 16u);
    EXPECT_EQ(r.chunkSize(15), kib(64));
}

TEST(ManagedRange, StartsHostOnlyAndClean)
{
    ManagedRange r("buf", kib(256), kib(64));
    for (ChunkIndex c = 0; c < r.chunkCount(); ++c) {
        EXPECT_EQ(r.state(c), ChunkState::HostOnly);
        EXPECT_FALSE(r.dirty(c));
    }
    EXPECT_EQ(r.residentBytes(), 0u);
}

TEST(ManagedRange, StateTransitions)
{
    ManagedRange r("buf", kib(256), kib(64));
    r.setState(1, ChunkState::MigratingToDev);
    EXPECT_EQ(r.state(1), ChunkState::MigratingToDev);
    r.setState(1, ChunkState::DeviceResident);
    ChunkIndex resident = 0;
    for (ChunkIndex c = 0; c < r.chunkCount(); ++c)
        resident += r.state(c) == ChunkState::DeviceResident;
    EXPECT_EQ(resident, 1u);
    EXPECT_EQ(r.residentBytes(), kib(64));
}

TEST(ManagedRange, DirtyBits)
{
    ManagedRange r("buf", kib(128), kib(64));
    r.setDirty(0, true);
    EXPECT_TRUE(r.dirty(0));
    EXPECT_FALSE(r.dirty(1));
    r.reset();
    EXPECT_FALSE(r.dirty(0));
    EXPECT_EQ(r.state(0), ChunkState::HostOnly);
}

TEST(ManagedRange, ResidentBytesCountsPartialTail)
{
    ManagedRange r("buf", kib(64) + 100, kib(64));
    r.setState(1, ChunkState::DeviceResident);
    EXPECT_EQ(r.residentBytes(), 100u);
}

TEST(ManagedRangeDeathTest, OutOfRangeChunkPanics)
{
    ManagedRange r("buf", kib(64), kib(64));
    EXPECT_DEATH(r.state(1), "out of range");
    EXPECT_DEATH(r.setDirty(5, true), "out of range");
}

TEST(PageTable, AddAndFetchRanges)
{
    PageTable pt("pt");
    std::size_t a = pt.addRange("a", mib(1), kib(64));
    std::size_t b = pt.addRange("b", mib(2), kib(64));
    EXPECT_EQ(pt.rangeCount(), 2u);
    EXPECT_EQ(pt.range(a).name(), "a");
    EXPECT_EQ(pt.range(b).bytes(), mib(2));
}

TEST(PageTable, ClearRanges)
{
    PageTable pt("pt");
    pt.addRange("a", mib(1), kib(64));
    pt.clearRanges();
    EXPECT_EQ(pt.rangeCount(), 0u);
}

TEST(PageTable, FaultAndMigrationAccounting)
{
    PageTable pt("pt");
    pt.recordFault();
    pt.recordFault();
    pt.recordMigration(true, kib(64));
    pt.recordMigration(false, kib(32));
    EXPECT_EQ(statOf(pt, "faults"), 2u);

    StatMap stats;
    pt.exportStats(stats);
    EXPECT_DOUBLE_EQ(stats["pt.faults"], 2.0);
    EXPECT_DOUBLE_EQ(stats["pt.migrations_to_device"], 1.0);
    EXPECT_DOUBLE_EQ(stats["pt.migrations_to_host"], 1.0);
    EXPECT_DOUBLE_EQ(stats["pt.bytes_to_device"],
                     static_cast<double>(kib(64)));
    EXPECT_DOUBLE_EQ(stats["pt.bytes_to_host"],
                     static_cast<double>(kib(32)));

    pt.resetStats();
    EXPECT_EQ(statOf(pt, "faults"), 0u);
}

} // namespace
} // namespace uvmasync
