#include "mem/host_memory.hh"

#include <utility>

#include "common/logging.hh"
#include "inject/injector.hh"

namespace uvmasync
{

HostMemory::HostMemory(std::string name, HostMemoryConfig cfg)
    : SimObject(std::move(name)), cfg_(cfg)
{
    UVMASYNC_ASSERT(cfg_.dimmCount > 0 && cfg_.dimmCapacity > 0,
                    "%s: empty host memory", this->name().c_str());
    UVMASYNC_ASSERT(cfg_.straddlePenalty >= 1.0,
                    "%s: straddle penalty must be >= 1",
                    this->name().c_str());
}

bool
HostMemory::straddles(Bytes footprint) const
{
    double threshold = cfg_.straddleThreshold *
                       static_cast<double>(cfg_.dimmCapacity);
    return static_cast<double>(footprint) > threshold;
}

double
HostMemory::placementFactor(Bytes footprint, Rng &rng)
{
    ++sampledRuns_;
    if (!straddles(footprint))
        return 1.0;

    // How much of the buffer spills past a single module grows with
    // footprint; the spilled share transfers at a degraded rate
    // decided by the (random) placement for this run.
    double cap = static_cast<double>(cfg_.dimmCapacity);
    double spill = std::min(
        1.0, (static_cast<double>(footprint) -
              cfg_.straddleThreshold * cap) /
                 (cfg_.spillSpanFraction * cap));
    double unlucky = rng.uniform(1.0, cfg_.straddlePenalty);
    // Weighted harmonic combination: (1 - spill) of the data at full
    // rate, `spill` of it slowed by `unlucky`.
    double factor = 1.0 / ((1.0 - spill) + spill * unlucky);
    if (factor < 0.999)
        ++straddledRuns_;
    return factor;
}

double
HostMemory::transferPathFactor(Tick now)
{
    return inject_ ? inject_->hostSlowFactor(now) : 1.0;
}

void
HostMemory::exportStats(StatMap &out) const
{
    putStat(out, "straddled_runs", static_cast<double>(straddledRuns_));
    putStat(out, "sampled_runs", static_cast<double>(sampledRuns_));
}

} // namespace uvmasync
