/**
 * @file
 * Bounded-cost regression for oversubscribed UVM points. kmeans@mega
 * under uvm_prefetch_async keeps evicting while it runs, so its host
 * time is dominated by the cost of an LRU touch. ctest runs this
 * suite with a 60 s TIMEOUT: with O(1) LRU operations the point
 * simulates in about a second; a linear LRU scan takes minutes.
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

} // namespace
} // namespace uvmasync
