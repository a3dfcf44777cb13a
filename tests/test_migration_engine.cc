/**
 * @file
 * Tests for the UVM migration engine: demand paging, bulk prefetch,
 * device population, writeback, churn and oversubscription.
 */

#include <gtest/gtest.h>

#include "mem/device_memory.hh"
#include "mem/page_table.hh"
#include "xfer/migration_engine.hh"
#include "xfer/pcie_link.hh"
#include "stat_of.hh"

namespace uvmasync
{
namespace
{

struct EngineFixture : public ::testing::Test
{
    EngineFixture()
        : table("pt"),
          devMem("hbm", gib(1), Bandwidth::fromGBps(1400.0)),
          link("pcie", PcieConfig{}),
          engine("uvm", makeCfg(), table, devMem, link)
    {
    }

    static UvmConfig
    makeCfg()
    {
        UvmConfig cfg;
        cfg.chunkBytes = kib(64);
        return cfg;
    }

    std::size_t
    addRange(Bytes bytes)
    {
        std::size_t id = table.addRange("buf", bytes,
                                        engine.config().chunkBytes);
        engine.beginJob();
        return id;
    }

    PageTable table;
    DeviceMemory devMem;
    PcieLink link;
    MigrationEngine engine;
};

TEST_F(EngineFixture, DemandFaultMigratesChunk)
{
    std::size_t id = addRange(mib(1));
    Tick ready = engine.requestChunk(id, 0, 0);
    EXPECT_GT(ready, 0u);
    EXPECT_EQ(engine.jobFaults(), 1u);
    EXPECT_EQ(table.range(id).state(0), ChunkState::DeviceResident);
    EXPECT_GT(engine.jobTransferBusy(), 0u);
}

TEST_F(EngineFixture, SecondRequestIsResidentHit)
{
    std::size_t id = addRange(mib(1));
    Tick first = engine.requestChunk(id, 0, 0);
    Tick second = engine.requestChunk(id, 0, first);
    EXPECT_EQ(second, first);
    EXPECT_EQ(engine.jobFaults(), 1u);
}

TEST_F(EngineFixture, EarlyRequesterWaitsForInFlight)
{
    std::size_t id = addRange(mib(1));
    Tick ready = engine.requestChunk(id, 0, 0);
    // A different SM touches the chunk while it is still in flight.
    Tick other = engine.requestChunk(id, 0, ready / 2);
    EXPECT_EQ(other, ready);
}

TEST_F(EngineFixture, PrefetchRangeMovesEverythingOnce)
{
    std::size_t id = addRange(mib(1));
    Occupancy occ = engine.prefetchRange(id, 0);
    EXPECT_GT(occ.duration(), 0u);
    EXPECT_TRUE(engine.allRangesResident());
    EXPECT_EQ(engine.jobFaults(), 0u);

    // Demanding after prefetch raises no fault.
    Tick ready = engine.requestChunk(id, 3, occ.end);
    EXPECT_EQ(ready, occ.end);
    EXPECT_EQ(engine.jobFaults(), 0u);
}

TEST_F(EngineFixture, RedundantPrefetchWithoutChurnIsFree)
{
    std::size_t id = addRange(mib(1));
    engine.prefetchRange(id, 0);
    Tick busyBefore = engine.jobTransferBusy();
    Occupancy again = engine.prefetchRange(id, seconds(1),
                                           /*churnOk=*/false);
    EXPECT_EQ(again.duration(), 0u);
    EXPECT_EQ(engine.jobTransferBusy(), busyBefore);
}

TEST_F(EngineFixture, RedundantPrefetchWithChurnPaysTransfer)
{
    std::size_t id = addRange(mib(1));
    engine.prefetchRange(id, 0);
    Tick busyBefore = engine.jobTransferBusy();
    engine.prefetchRange(id, seconds(1), /*churnOk=*/true);
    EXPECT_GT(engine.jobTransferBusy(), busyBefore);
}

TEST_F(EngineFixture, PopulateOnDeviceIsFree)
{
    std::size_t id = addRange(mib(1));
    engine.populateOnDevice(id);
    EXPECT_TRUE(engine.allRangesResident());
    EXPECT_EQ(engine.jobTransferBusy(), 0u);
    EXPECT_EQ(engine.jobFaults(), 0u);
    EXPECT_EQ(statOf(devMem, "resident_bytes"), mib(1));
}

TEST_F(EngineFixture, WritebackMovesOnlyDirty)
{
    std::size_t id = addRange(mib(1));
    engine.populateOnDevice(id);
    // Nothing dirty yet.
    EXPECT_EQ(engine.writebackDirty(id, 0), 0u);

    table.range(id).setDirty(2, true);
    Tick busyBefore = engine.jobTransferBusy();
    Tick done = engine.writebackDirty(id, 0);
    EXPECT_GT(done, 0u);
    EXPECT_GT(engine.jobTransferBusy(), busyBefore);
    EXPECT_FALSE(table.range(id).dirty(2));
}

TEST_F(EngineFixture, MarkRangeDirtyMarksResidentChunks)
{
    std::size_t id = addRange(mib(1));
    engine.requestChunk(id, 0, 0);
    engine.markRangeDirty(id);
    EXPECT_TRUE(table.range(id).dirty(0));
    EXPECT_FALSE(table.range(id).dirty(1)); // never migrated
}

TEST_F(EngineFixture, AllRangesResidentTracksEveryRange)
{
    std::size_t a = addRange(mib(1));
    std::size_t b = table.addRange("buf2", mib(1),
                                   engine.config().chunkBytes);
    EXPECT_FALSE(engine.allRangesResident());
    engine.populateOnDevice(a);
    EXPECT_FALSE(engine.allRangesResident());
    engine.populateOnDevice(b);
    EXPECT_TRUE(engine.allRangesResident());
}

TEST_F(EngineFixture, BeginJobResetsResidency)
{
    std::size_t id = addRange(mib(1));
    engine.prefetchRange(id, 0);
    engine.beginJob();
    EXPECT_FALSE(engine.allRangesResident());
    EXPECT_EQ(engine.jobTransferBusy(), 0u);
}

TEST(MigrationEngineOversub, EvictsWhenDeviceFull)
{
    PageTable table("pt");
    // Tiny device: 4 chunks fit.
    DeviceMemory devMem("hbm", kib(256), Bandwidth::fromGBps(1400.0));
    PcieLink link("pcie", PcieConfig{});
    UvmConfig cfg;
    cfg.chunkBytes = kib(64);
    MigrationEngine engine("uvm", cfg, table, devMem, link);

    std::size_t id = table.addRange("big", kib(512), cfg.chunkBytes);
    engine.beginJob();

    Tick t = 0;
    for (std::uint64_t c = 0; c < 8; ++c)
        t = engine.requestChunk(id, c, t);

    EXPECT_GT(statOf(devMem, "evictions"), 0u);
    EXPECT_LE(statOf(devMem, "resident_bytes"), kib(256));
    // Early chunks were evicted; re-demand faults again.
    std::uint64_t faults = engine.jobFaults();
    engine.requestChunk(id, 0, t);
    EXPECT_EQ(engine.jobFaults(), faults + 1);
}

TEST(MigrationEngineOversub, DirtyVictimsWriteBack)
{
    PageTable table("pt");
    DeviceMemory devMem("hbm", kib(128), Bandwidth::fromGBps(1400.0));
    PcieLink link("pcie", PcieConfig{});
    UvmConfig cfg;
    cfg.chunkBytes = kib(64);
    MigrationEngine engine("uvm", cfg, table, devMem, link);

    std::size_t id = table.addRange("big", kib(512), cfg.chunkBytes);
    engine.beginJob();

    Tick t = engine.requestChunk(id, 0, 0);
    table.range(id).setDirty(0, true);
    Bytes d2hBefore = link.bytesMoved(Direction::DeviceToHost);
    // Fill past capacity; chunk 0 eventually evicts and writes back.
    for (std::uint64_t c = 1; c < 4; ++c)
        t = engine.requestChunk(id, c, t);
    EXPECT_GT(link.bytesMoved(Direction::DeviceToHost), d2hBefore);
}

} // namespace
} // namespace uvmasync
