/**
 * @file
 * Chrome trace_event JSON export.
 *
 * Writes the `{"traceEvents": [...]}` format that chrome://tracing
 * and Perfetto (ui.perfetto.dev) load directly. Every lane of every
 * job becomes its own pid with a `process_name` metadata record, so
 * the viewer shows one labelled track per simulated resource
 * ("saxpy/uvm:pcie.h2d", ...); spans are complete ("X") events and
 * instants are "i" events. Output is byte-deterministic: fixed-point
 * microsecond formatting from integer picoseconds, lanes in id
 * order, events in recording order.
 */

#ifndef UVMASYNC_TRACE_CHROME_EXPORT_HH
#define UVMASYNC_TRACE_CHROME_EXPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace uvmasync
{

/** One job's trace in a merged export. */
struct ChromeTraceJob
{
    std::string name;    //!< process-name prefix ("saxpy/uvm")
    const Tracer *trace; //!< borrowed; must outlive the export
};

/** Export several jobs into one trace file, pids in job order. */
void writeChromeTrace(std::ostream &os,
                      const std::vector<ChromeTraceJob> &jobs);

} // namespace uvmasync

#endif // UVMASYNC_TRACE_CHROME_EXPORT_HH
