#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                  static_cast<double>(samples.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(rank));
    std::size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

std::size_t
countAbove(const std::vector<double> &samples, double threshold)
{
    return static_cast<std::size_t>(
        std::count_if(samples.begin(), samples.end(),
                      [&](double v) { return v > threshold; }));
}

bool
percentileReportable(const std::vector<double> &samples, double p,
                     std::size_t minTail)
{
    return !samples.empty() &&
           countAbove(samples, percentile(samples, p)) >= minTail;
}

} // namespace perfbench
