/**
 * @file
 * Bounded-cost regressions for the slow shapes of UVM points. ctest
 * runs this suite with a 60 s TIMEOUT.
 *
 *  - kmeans@mega under uvm_prefetch_async keeps evicting while it
 *    runs, so its host time is dominated by the cost of an LRU touch:
 *    with O(1) LRU operations it simulates in about a second; a
 *    linear LRU scan takes minutes.
 *  - lavaMD@super under uvm runs 2^21 blocks over far fewer chunks
 *    and never evicts. Most of each block's chunk groups demand
 *    nothing, and the demand-driven event loop skips them; of its
 *    4,194,304 chunk requests only 16,384 fault, so nearly every
 *    block is quiet (all its chunks resident hits) and skips the
 *    event queue altogether.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/experiment.hh"
#include "sim/watchdog.hh"
#include "trace/trace.hh"

namespace uvmasync
{
namespace
{

TEST(OversubscriptionCost, KmeansMegaPrefetchAsyncIsBounded)
{
    Experiment experiment;
    ExperimentOptions opts;
    opts.size = SizeClass::Mega;
    opts.runs = 1;
    // Every eviction records one Migration/Evict instant, so the
    // trace counts what the device reports as hbm.evictions.
    opts.trace = true;
    opts.traceCategories = traceCategoryBit(TraceCategory::Migration);

    ExperimentResult res;
    try {
        res = experiment.run("kmeans", TransferMode::UvmPrefetchAsync,
                             opts);
    } catch (const PointTimeout &e) {
        FAIL() << "watchdog tripped: " << e.what();
    }
    const std::vector<TraceEvent> &events = res.trace.events();
    auto evictions = std::count_if(
        events.begin(), events.end(), [](const TraceEvent &ev) {
            return ev.name == TraceName::Evict;
        });
    EXPECT_GT(evictions, 0);
    EXPECT_GT(res.clean.overallPs(), 0.0);
}

TEST(OversubscriptionCost, LavaMdSuperUvmIsBounded)
{
    Experiment experiment;
    ExperimentOptions opts;
    opts.size = SizeClass::Super;
    opts.runs = 1;

    ExperimentResult res;
    try {
        res = experiment.run("lavaMD", TransferMode::Uvm, opts);
    } catch (const PointTimeout &e) {
        FAIL() << "watchdog tripped: " << e.what();
    }
    // The Figure 8 golden's fault count for this point.
    EXPECT_EQ(res.counters.faults, 16384u);
}

} // namespace
} // namespace uvmasync
