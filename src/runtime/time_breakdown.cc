#include "runtime/time_breakdown.hh"

#include "common/table.hh"

namespace uvmasync
{

TimeBreakdown &
TimeBreakdown::operator+=(const TimeBreakdown &o)
{
    allocPs += o.allocPs;
    transferPs += o.transferPs;
    kernelPs += o.kernelPs;
    return *this;
}

TimeBreakdown
TimeBreakdown::operator*(double k) const
{
    return TimeBreakdown{allocPs * k, transferPs * k, kernelPs * k};
}

} // namespace uvmasync
