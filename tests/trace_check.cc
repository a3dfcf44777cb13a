#include "trace_check.hh"

#include <cstdio>
#include <vector>

namespace uvmasync
{

namespace
{

std::string
describe(const Tracer &trace, const TraceEvent &ev)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s/%s [%llu, %llu) on lane %s",
                  traceCategoryName(ev.category),
                  traceNameStr(ev.name),
                  static_cast<unsigned long long>(ev.start),
                  static_cast<unsigned long long>(ev.end),
                  trace.laneNames()[ev.lane].c_str());
    return buf;
}

} // namespace

TraceCheckResult
checkTrace(const Tracer &trace)
{
    TraceCheckResult res;
    auto fail = [&](std::string msg) {
        res.ok = false;
        res.violations.push_back(std::move(msg));
    };

    const Tick wall = trace.wallEnd();

    // Per-lane span state: last start seen (ordering) and the stack
    // of currently open enclosing spans (nesting). Spans arrive in
    // non-decreasing start order per lane, so a single forward pass
    // with a stack decides containment exactly.
    struct LaneState
    {
        Tick lastStart = 0;
        bool any = false;
        std::vector<Tick> openEnds;
    };
    std::vector<LaneState> lanes(trace.laneCount());

    for (const TraceEvent &ev : trace.events()) {
        if (ev.end > wall)
            fail("event past wall end: " + describe(trace, ev));
        if (ev.isInstant())
            continue;

        LaneState &lane = lanes[ev.lane];
        if (lane.any && ev.start < lane.lastStart) {
            fail("span starts before its lane predecessor: " +
                 describe(trace, ev));
            // Ordering is broken; the stack below would report
            // cascading noise for this lane, so resync.
            lane.openEnds.clear();
        }
        lane.lastStart = ev.start;
        lane.any = true;

        // Pop spans that ended before this one starts; what remains
        // open must fully contain the new span.
        while (!lane.openEnds.empty() &&
               lane.openEnds.back() <= ev.start)
            lane.openEnds.pop_back();
        if (!lane.openEnds.empty() && ev.end > lane.openEnds.back())
            fail("span half-overlaps an open span: " +
                 describe(trace, ev));
        lane.openEnds.push_back(ev.end);
    }
    return res;
}

} // namespace uvmasync
