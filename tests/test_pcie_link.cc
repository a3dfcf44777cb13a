/**
 * @file
 * Tests for the PCIe link model: per-kind efficiency, full-duplex
 * behaviour, and accounting.
 */

#include <gtest/gtest.h>

#include "xfer/pcie_link.hh"

namespace uvmasync
{
namespace
{

PcieConfig
testConfig()
{
    PcieConfig cfg;
    cfg.perTransferLatency.fill(0); // isolate bandwidth effects
    return cfg;
}

TEST(PcieLink, KindNamesDistinct)
{
    EXPECT_STRNE(transferKindName(TransferKind::PageableCopy),
                 transferKindName(TransferKind::BulkPrefetch));
}

TEST(PcieLink, PinnedFasterThanPageable)
{
    PcieLink link("pcie", testConfig());
    Occupancy pageable = link.transfer(0, mib(64),
                                       Direction::HostToDevice,
                                       TransferKind::PageableCopy);
    PcieLink link2("pcie2", testConfig());
    Occupancy pinned = link2.transfer(0, mib(64),
                                      Direction::HostToDevice,
                                      TransferKind::PinnedCopy);
    EXPECT_LT(pinned.duration(), pageable.duration());
}

TEST(PcieLink, BulkPrefetchFasterThanPageable)
{
    // The root cause of the paper's uvm_prefetch transfer savings.
    PcieLink a("a", testConfig());
    PcieLink b("b", testConfig());
    Occupancy pageable = a.transfer(0, gib(1),
                                    Direction::HostToDevice,
                                    TransferKind::PageableCopy);
    Occupancy bulk = b.transfer(0, gib(1), Direction::HostToDevice,
                                TransferKind::BulkPrefetch);
    EXPECT_LT(bulk.duration(), pageable.duration());
}

TEST(PcieLink, FullDuplexDirectionsIndependent)
{
    PcieLink link("pcie", testConfig());
    Occupancy h2d = link.transfer(0, mib(64),
                                  Direction::HostToDevice,
                                  TransferKind::PinnedCopy);
    Occupancy d2h = link.transfer(0, mib(64),
                                  Direction::DeviceToHost,
                                  TransferKind::PinnedCopy);
    // Both start at zero: directions do not serialize.
    EXPECT_EQ(h2d.start, 0u);
    EXPECT_EQ(d2h.start, 0u);
}

TEST(PcieLink, SameDirectionSerializes)
{
    PcieLink link("pcie", testConfig());
    Occupancy a = link.transfer(0, mib(1), Direction::HostToDevice,
                                TransferKind::PinnedCopy);
    Occupancy b = link.transfer(0, mib(1), Direction::HostToDevice,
                                TransferKind::PinnedCopy);
    EXPECT_EQ(b.start, a.end);
}

TEST(PcieLink, HostFactorSlowsTransfer)
{
    PcieLink a("a", testConfig());
    PcieLink b("b", testConfig());
    Occupancy fast = a.transfer(0, mib(64), Direction::HostToDevice,
                                TransferKind::PageableCopy, 1.0);
    Occupancy slow = b.transfer(0, mib(64), Direction::HostToDevice,
                                TransferKind::PageableCopy, 0.5);
    EXPECT_NEAR(static_cast<double>(slow.duration()),
                2.0 * static_cast<double>(fast.duration()),
                static_cast<double>(fast.duration()) * 0.01);
}

TEST(PcieLink, PerKindLatencyCharged)
{
    PcieConfig cfg = testConfig();
    cfg.perTransferLatency[static_cast<std::size_t>(
        TransferKind::PageableCopy)] = microseconds(25);
    PcieLink link("pcie", cfg);
    Occupancy tiny = link.transfer(0, 1, Direction::HostToDevice,
                                   TransferKind::PageableCopy);
    EXPECT_GE(tiny.duration(), microseconds(24));
}

TEST(PcieLink, ByteAccounting)
{
    PcieLink link("pcie", testConfig());
    link.transfer(0, mib(3), Direction::HostToDevice,
                  TransferKind::PageableCopy);
    link.transfer(0, mib(2), Direction::DeviceToHost,
                  TransferKind::Writeback);
    EXPECT_EQ(link.bytesMoved(Direction::HostToDevice), mib(3));
    EXPECT_EQ(link.bytesMoved(Direction::DeviceToHost), mib(2));
    StatMap stats;
    link.exportStats(stats);
    EXPECT_EQ(stats.at(std::string("pcie.bytes_") +
                       transferKindName(TransferKind::PageableCopy)),
              static_cast<double>(mib(3)));
    EXPECT_EQ(stats.at(std::string("pcie.bytes_") +
                       transferKindName(TransferKind::Writeback)),
              static_cast<double>(mib(2)));

    link.reset();
    EXPECT_EQ(link.bytesMoved(Direction::HostToDevice), 0u);
    EXPECT_EQ(link.transfer(0, kib(4), Direction::HostToDevice,
                            TransferKind::PageableCopy)
                  .start,
              0u);
}

TEST(PcieLink, StatsExport)
{
    PcieLink link("pcie", testConfig());
    link.transfer(0, kib(64), Direction::HostToDevice,
                  TransferKind::DemandMigration);
    StatMap stats;
    link.exportStats(stats);
    EXPECT_DOUBLE_EQ(stats["pcie.bytes_h2d"],
                     static_cast<double>(kib(64)));
    EXPECT_GT(stats["pcie.busy_h2d_ps"], 0.0);
}

} // namespace
} // namespace uvmasync
