/**
 * @file
 * Summary statistics used throughout the experiment harness: running
 * mean/variance, percentiles, geometric means, and simple histograms.
 */

#ifndef UVMASYNC_COMMON_STATS_HH
#define UVMASYNC_COMMON_STATS_HH

#include <cstddef>
#include <string>
#include <vector>

namespace uvmasync
{

/**
 * Welford running mean/variance accumulator.
 */
class RunningStat
{
  public:
    RunningStat() = default;

    /** Add one observation. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &other);

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const;
    double max() const;

    /** Sample variance (n-1 denominator); 0 for fewer than 2 samples. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Coefficient of variation: stddev / mean (0 if mean is 0). */
    double cv() const;

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A batch of samples retained in full, for percentiles and plots.
 */
class SampleSet
{
  public:
    void add(double x) { samples_.push_back(x); }
    void clear() { samples_.clear(); }

    std::size_t count() const { return samples_.size(); }
    const std::vector<double> &samples() const { return samples_; }

    double mean() const;
    double stddev() const;
    double min() const;
    double max() const;

    /** Coefficient of variation: stddev / mean. */
    double cv() const;

    /** Linear-interpolated percentile, p in [0, 100]. */
    double percentile(double p) const;

    double median() const { return percentile(50.0); }

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

/** Speedup of @p value relative to @p baseline: baseline / value. */
double speedup(double value, double baseline);

/**
 * Fixed-width histogram over [lo, hi); out-of-range samples clamp to
 * the edge buckets.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets);

    void add(double x);

    std::size_t bucket(std::size_t i) const { return counts_.at(i); }
    std::size_t total() const { return total_; }
    double bucketLow(std::size_t i) const;
    double bucketHigh(std::size_t i) const;

    /** Render a compact ASCII sparkline of the distribution. */
    std::string sparkline() const;

  private:
    double lo_;
    double hi_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
};

} // namespace uvmasync

#endif // UVMASYNC_COMMON_STATS_HH
