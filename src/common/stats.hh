/**
 * @file
 * Summary statistics used throughout the experiment harness: retained
 * samples with percentiles, geometric means and relative change.
 */

#ifndef UVMASYNC_COMMON_STATS_HH
#define UVMASYNC_COMMON_STATS_HH

#include <cstddef>
#include <vector>

namespace uvmasync
{

/**
 * A batch of samples retained in full, for percentiles and plots.
 */
class SampleSet
{
  public:
    void add(double x) { samples_.push_back(x); }

    double mean() const;
    double stddev() const;

    /** Coefficient of variation: stddev / mean. */
    double cv() const;

    /** Linear-interpolated percentile, p in [0, 100]. */
    double percentile(double p) const;

  private:
    std::vector<double> samples_;
};

/** Geometric mean of a set of strictly positive values. */
double geomean(const std::vector<double> &values);

/**
 * Fractional change of @p value relative to @p baseline:
 * (value - baseline) / baseline. Used to report "X% over standard".
 */
double relativeChange(double value, double baseline);

} // namespace uvmasync

#endif // UVMASYNC_COMMON_STATS_HH
