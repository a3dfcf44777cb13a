#include "trace/chrome_export.hh"

#include <cinttypes>
#include <cstdio>

#include "common/json_escape.hh"

namespace uvmasync
{

namespace
{

/**
 * Ticks are integer picoseconds; trace_event wants microseconds.
 * Emit a fixed-point "<us>.<6 digits>" string from integer math so
 * the output never depends on floating-point formatting.
 */
std::string
microseconds(Tick ps)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%06" PRIu64,
                  ps / 1000000, ps % 1000000);
    return buf;
}

void
writeEvent(std::ostream &os, const TraceEvent &ev, int pid,
           bool &first)
{
    if (!first)
        os << ",\n";
    first = false;

    os << "    {\"name\": \"" << traceNameStr(ev.name)
       << "\", \"cat\": \"" << traceCategoryName(ev.category)
       << "\", \"ph\": \"" << (ev.isInstant() ? 'i' : 'X')
       << "\", \"ts\": " << microseconds(ev.start);
    if (!ev.isInstant())
        os << ", \"dur\": " << microseconds(ev.duration());
    os << ", \"pid\": " << pid << ", \"tid\": 0";
    if (ev.isInstant())
        os << ", \"s\": \"t\"";

    os << ", \"args\": {\"arg\": " << ev.arg;
    if (ev.arg2 != 0)
        os << ", \"arg2\": " << ev.arg2;
    if (!ev.label.empty())
        os << ", \"label\": \"" << jsonEscape(ev.label) << "\"";
    os << "}}";
}

void
writeProcessName(std::ostream &os, int pid, const std::string &name,
                 bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
       << pid << ", \"tid\": 0, \"args\": {\"name\": \""
       << jsonEscape(name) << "\"}}";
}

} // namespace

void
writeChromeTrace(std::ostream &os,
                 const std::vector<ChromeTraceJob> &jobs)
{
    os << "{\n  \"displayTimeUnit\": \"ms\",\n"
       << "  \"traceEvents\": [\n";

    bool first = true;
    int pid = 1;
    for (const ChromeTraceJob &job : jobs) {
        const Tracer &trace = *job.trace;
        const int basePid = pid;
        for (const std::string &laneName : trace.laneNames()) {
            writeProcessName(os, pid, job.name + ":" + laneName,
                             first);
            ++pid;
        }
        // Per lane in id order, events in recording order — this is
        // also per-lane time order for spans, which viewers expect.
        for (std::uint32_t laneId = 0; laneId < trace.laneCount();
             ++laneId) {
            for (const TraceEvent &ev : trace.events()) {
                if (ev.lane == laneId)
                    writeEvent(os, ev, basePid + static_cast<int>(laneId),
                               first);
            }
        }
    }
    os << "\n  ]\n}\n";
}

} // namespace uvmasync
