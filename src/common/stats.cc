#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace uvmasync
{

double
SampleSet::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (double s : samples_)
        sum += s;
    return sum / static_cast<double>(samples_.size());
}

double
SampleSet::stddev() const
{
    if (samples_.size() < 2)
        return 0.0;
    double m = mean();
    double acc = 0.0;
    for (double s : samples_)
        acc += (s - m) * (s - m);
    return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double
SampleSet::cv() const
{
    double m = mean();
    return m != 0.0 ? stddev() / m : 0.0;
}

double
SampleSet::percentile(double p) const
{
    UVMASYNC_ASSERT(p >= 0.0 && p <= 100.0, "percentile %f out of range",
                    p);
    if (samples_.empty())
        return 0.0;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1)
        return sorted.front();
    double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(rank));
    auto hi = static_cast<std::size_t>(std::ceil(rank));
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values) {
        UVMASYNC_ASSERT(v > 0.0, "geomean requires positive values, got %f",
                        v);
        acc += std::log(v);
    }
    return std::exp(acc / static_cast<double>(values.size()));
}

double
relativeChange(double value, double baseline)
{
    if (baseline == 0.0)
        return 0.0;
    return (value - baseline) / baseline;
}

} // namespace uvmasync
