/**
 * @file
 * Tests for the per-point Watchdog: each ceiling, the stall counter
 * and the same-tick eviction bursts it must tolerate. The sequences
 * below feed onEvent()/checkSimTime() exactly as the busy-until
 * components do (one call per modelled completion, in completion
 * order); ParallelRunner's tests cover the real eviction feed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "sim/watchdog.hh"

namespace uvmasync
{
namespace
{

/**
 * The current stall run of @p wd (events since simulated time last
 * advanced), read off a copy: same-tick events at @p now until its
 * livelock ceiling @p maxStall trips.
 */
std::uint64_t
stallRun(Watchdog wd, Tick now, std::uint64_t maxStall)
{
    for (std::uint64_t fed = 1;; ++fed) {
        try {
            wd.onEvent(now);
        } catch (const PointTimeout &timeout) {
            EXPECT_EQ(timeout.kind(), WatchdogTrip::Livelock);
            return maxStall - fed;
        }
    }
}

TEST(Watchdog, DisarmedIsANoOp)
{
    Watchdog wd;
    for (int i = 0; i < 100; ++i)
        wd.onEvent(nanoseconds(1));
    EXPECT_EQ(wd.events(), 0u);
    wd.checkSimTime(seconds(3600));
}

TEST(Watchdog, EventCountCeilingTrips)
{
    Watchdog wd;
    WatchdogConfig cfg;
    cfg.maxEvents = 3;
    cfg.maxStallEvents = 0;
    wd.arm(cfg);
    for (std::uint64_t i = 1; i <= 3; ++i)
        wd.onEvent(nanoseconds(i));
    try {
        wd.onEvent(nanoseconds(4));
        FAIL() << "ceiling did not trip";
    } catch (const PointTimeout &e) {
        EXPECT_EQ(e.kind(), WatchdogTrip::EventCount);
        EXPECT_EQ(e.events(), 4u);
        EXPECT_NE(std::string(e.what()).find("watchdog.max_events"),
                  std::string::npos);
    }
}

TEST(Watchdog, SimTimeCeilingTrips)
{
    Watchdog wd;
    WatchdogConfig cfg;
    cfg.maxSimTime = microseconds(10);
    cfg.maxEvents = 0;
    cfg.maxStallEvents = 0;
    wd.arm(cfg);
    wd.checkSimTime(microseconds(10)); // at the ceiling: fine
    try {
        wd.checkSimTime(microseconds(10) + 1);
        FAIL() << "ceiling did not trip";
    } catch (const PointTimeout &e) {
        EXPECT_EQ(e.kind(), WatchdogTrip::SimTime);
        EXPECT_NE(std::string(e.what()).find("watchdog.max_sim_ms"),
                  std::string::npos);
    }
}

TEST(Watchdog, LivelockTripsOnSelfReschedulingEvent)
{
    // Work that keeps completing at the same tick (a self-requeueing
    // completion) would spin forever; the stall detector bounds the
    // damage. The first event advances time, the next 16 stall.
    Watchdog wd;
    WatchdogConfig cfg;
    cfg.maxEvents = 0;
    cfg.maxStallEvents = 16;
    wd.arm(cfg);
    try {
        for (int i = 0; i < 1000; ++i)
            wd.onEvent(nanoseconds(1));
        FAIL() << "livelock did not trip";
    } catch (const PointTimeout &e) {
        EXPECT_EQ(e.kind(), WatchdogTrip::Livelock);
        EXPECT_EQ(e.when(), nanoseconds(1));
        EXPECT_EQ(e.events(), 17u);
        EXPECT_NE(
            std::string(e.what()).find("watchdog.max_stall_events"),
            std::string::npos);
    }
}

TEST(Watchdog, TimeAdvanceResetsTheStallRun)
{
    Watchdog wd;
    WatchdogConfig cfg;
    cfg.maxEvents = 0;
    cfg.maxStallEvents = 4;
    wd.arm(cfg);
    // Three same-tick events, then an advance, repeatedly: the run
    // never reaches the ceiling.
    for (std::uint64_t t = 1; t <= 50; ++t) {
        wd.onEvent(nanoseconds(t));
        wd.onEvent(nanoseconds(t));
        wd.onEvent(nanoseconds(t));
        EXPECT_EQ(stallRun(wd, nanoseconds(t), cfg.maxStallEvents), 2u);
    }
    EXPECT_EQ(wd.events(), 150u);
}

TEST(Watchdog, StallCounterIsFedByQueueDispatch)
{
    // Completions arrive in non-decreasing time order: same-tick
    // completions grow the run, the first time-advancing one resets
    // it.
    Watchdog wd;
    WatchdogConfig cfg;
    cfg.maxEvents = 0;
    // A disabled stall ceiling (0) short-circuits the counter, so
    // observe under a ceiling far beyond this test instead.
    cfg.maxStallEvents = 1u << 20;
    wd.arm(cfg);

    for (int i = 0; i < 8; ++i)
        wd.onEvent(nanoseconds(5));
    wd.onEvent(nanoseconds(9));

    // Eight completions at tick 5: the first advances time (0 -> 5),
    // the next seven stall. The tick-9 completion resets the run.
    EXPECT_EQ(wd.events(), 9u);
    EXPECT_EQ(stallRun(wd, nanoseconds(9), cfg.maxStallEvents), 0u);

    for (int i = 0; i < 4; ++i)
        wd.onEvent(nanoseconds(9));
    EXPECT_EQ(wd.events(), 13u);
    // The tick never advanced past 9.
    EXPECT_EQ(stallRun(wd, nanoseconds(9), cfg.maxStallEvents), 4u);
}

TEST(Watchdog, CleanEvictionBurstsAreInvisibleToTimeCeilings)
{
    // Evicting clean chunks costs no simulated time, so a large
    // eviction burst is a legitimate same-tick run: it must sail
    // under a tight maxSimTime ceiling untouched...
    constexpr int kBurst = 4096;
    {
        Watchdog wd;
        WatchdogConfig cfg;
        cfg.maxSimTime = microseconds(1);
        cfg.maxEvents = 0;
        cfg.maxStallEvents = 1u << 20; // far beyond the burst
        wd.arm(cfg);
        EXPECT_NO_THROW({
            for (int i = 0; i < kBurst; ++i)
                wd.onEvent(nanoseconds(100));
            wd.checkSimTime(nanoseconds(100)); // phase boundary
        });
        EXPECT_EQ(wd.events(), static_cast<std::uint64_t>(kBurst));
        EXPECT_EQ(stallRun(wd, nanoseconds(100), cfg.maxStallEvents),
                  kBurst - 1u);
    }
    // ...while only the livelock ceiling — the one sized for honest
    // same-tick work — can declare the burst pathological.
    {
        Watchdog wd;
        WatchdogConfig cfg;
        cfg.maxSimTime = microseconds(1);
        cfg.maxEvents = 0;
        cfg.maxStallEvents = 256;
        wd.arm(cfg);
        try {
            for (int i = 0; i < kBurst; ++i)
                wd.onEvent(nanoseconds(100));
            FAIL() << "livelock ceiling did not trip";
        } catch (const PointTimeout &e) {
            EXPECT_EQ(e.kind(), WatchdogTrip::Livelock);
            EXPECT_EQ(e.when(), nanoseconds(100));
        }
    }
}

} // namespace
} // namespace uvmasync
