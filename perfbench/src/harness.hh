/**
 * @file
 * The two workload harnesses. Each fills a RunReport: set-up times,
 * timed passes and output checks; with BenchOptions::trace, the
 * per-layer metrics instead of a timed loop.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include "bench.hh"

namespace perfbench
{

/**
 * oversub_mega and darknet_tiny: ParallelRunner::runPoints. Returns
 * false with @p error when the traced run's daemon cannot start.
 */
bool runInProcess(const BenchOptions &opt, RunReport &report,
                  std::string &error);

/**
 * campaign_mixed: two closed-loop ServeClient connections to an
 * in-process ServeDaemon with a shared, half pre-warmed store.
 * Returns false with @p error when the rig cannot start.
 */
bool runCampaign(const BenchOptions &opt, RunReport &report,
                 std::string &error);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
