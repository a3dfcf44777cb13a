/**
 * @file
 * Structural invariants of a recorded trace: the test oracle of the
 * tracer and property suites.
 *
 * These are the machine-checkable laws that every correct simulation
 * trace obeys, regardless of calibration:
 *
 *  - per lane, spans are recorded in non-decreasing start order
 *    (lanes model FCFS resources or forward-moving execution tracks);
 *  - per lane, spans nest properly: any two spans are either disjoint
 *    or one contains the other — a half-overlap means two occupants
 *    claimed the same resource window;
 *  - every event ends no later than the trace's wall end.
 *
 * Instants are exempt from ordering/nesting (a fault raise may land
 * inside the previous batch's service window by design). The property
 * suite runs this checker over every registry workload.
 */

#ifndef UVMASYNC_TESTS_TRACE_CHECK_HH
#define UVMASYNC_TESTS_TRACE_CHECK_HH

#include <string>
#include <vector>

#include "trace/trace.hh"

namespace uvmasync
{

/** Outcome of checkTrace(): ok, or the violations found. */
struct TraceCheckResult
{
    bool ok = true;

    /** Human-readable description of each violation. */
    std::vector<std::string> violations;

    /** First violation (empty when ok). */
    std::string first() const
    {
        return violations.empty() ? std::string() : violations.front();
    }
};

/** Verify the structural invariants above on @p trace. */
TraceCheckResult checkTrace(const Tracer &trace);

} // namespace uvmasync

#endif // UVMASYNC_TESTS_TRACE_CHECK_HH
