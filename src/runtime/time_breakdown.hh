/**
 * @file
 * The paper's execution-time decomposition (Section 3.3): data
 * allocation time + data transfer time + GPU kernel time = overall
 * execution time. The components are accounted separately even when
 * they overlap in wall-clock time, matching the paper's stacked-bar
 * methodology.
 */

#ifndef UVMASYNC_RUNTIME_TIME_BREAKDOWN_HH
#define UVMASYNC_RUNTIME_TIME_BREAKDOWN_HH

#include <string>

#include "common/types.hh"

namespace uvmasync
{

/** One run's time components, in picoseconds. */
struct TimeBreakdown
{
    double allocPs = 0.0;
    double transferPs = 0.0;
    double kernelPs = 0.0;

    /** The paper's overall execution time (sum of the parts). */
    double overallPs() const { return allocPs + transferPs + kernelPs; }

    TimeBreakdown &operator+=(const TimeBreakdown &o);
    TimeBreakdown operator*(double k) const;

};

} // namespace uvmasync

#endif // UVMASYNC_RUNTIME_TIME_BREAKDOWN_HH
