#include "sim/resource.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace uvmasync
{

BandwidthResource::BandwidthResource(std::string name, Bandwidth bandwidth,
                                     Tick perRequestLatency)
    : name_(std::move(name)), bandwidth_(bandwidth),
      perRequestLatency_(perRequestLatency)
{
    UVMASYNC_ASSERT(bandwidth_.valid(), "%s: zero bandwidth",
                    name_.c_str());
}

Occupancy
BandwidthResource::acquire(Tick now, Bytes bytes)
{
    Tick start = std::max(now, busyUntil_);
    Tick service = perRequestLatency_ + bandwidth_.transferTime(bytes);
    Tick end = start + service;
    busyUntil_ = end;
    busyTime_ += service;
    ++requests_;
    return Occupancy{start, end};
}

void
BandwidthResource::reset()
{
    busyUntil_ = 0;
    busyTime_ = 0;
    requests_ = 0;
}

} // namespace uvmasync
