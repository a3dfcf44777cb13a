/**
 * @file
 * Order statistics for host-time samples: medians and percentiles.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <vector>

namespace perfbench
{

/**
 * The @p p-th percentile (0..100) of @p samples, interpolating
 * linearly between closest ranks (rank = p/100 * (n-1)). Returns 0
 * for an empty sample set.
 */
double percentile(std::vector<double> samples, double p);

/** percentile(samples, 50). */
double median(std::vector<double> samples);

/** Number of samples strictly greater than @p threshold. */
std::size_t countAbove(const std::vector<double> &samples,
                       double threshold);

/**
 * True when at least @p minTail samples lie strictly beyond the
 * @p p-th percentile, the condition for reporting that percentile.
 */
bool percentileReportable(const std::vector<double> &samples, double p,
                          std::size_t minTail = 10);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
