#include "runtime/timeline.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "common/table.hh"

namespace uvmasync
{

char
phaseGlyph(PhaseKind kind)
{
    switch (kind) {
      case PhaseKind::Alloc: return 'a';
      case PhaseKind::TransferIn: return '>';
      case PhaseKind::Kernel: return '#';
      case PhaseKind::TransferOut: return '<';
      case PhaseKind::Free: return 'f';
    }
    panic("unknown phase kind %d", static_cast<int>(kind));
}

void
Timeline::setLaneName(std::size_t index, std::string name)
{
    if (laneNames_.size() <= index)
        laneNames_.resize(index + 1);
    laneNames_[index] = std::move(name);
}

void
Timeline::add(PhaseKind kind, std::string label, Tick start, Tick end,
              std::size_t lane)
{
    UVMASYNC_ASSERT(end >= start, "phase '%s' ends before it starts",
                    label.c_str());
    if (laneNames_.size() <= lane)
        laneNames_.resize(lane + 1, "lane");
    auto &dest = end == start ? instants_ : phases_;
    dest.push_back(Phase{kind, std::move(label), start, end, lane});
}

Tick
Timeline::makespan() const
{
    Tick latest = 0;
    for (const Phase &phase : phases_)
        latest = std::max(latest, phase.end);
    return latest;
}

void
exportTimelineToTrace(const Timeline &timeline, Tracer &tracer)
{
    std::vector<std::uint32_t> laneMap;
    for (std::size_t i = 0; i < timeline.laneCount(); ++i)
        laneMap.push_back(tracer.lane(timeline.laneName(i)));

    auto phaseName = [](PhaseKind kind) {
        // The TraceName Phase block mirrors PhaseKind order.
        return static_cast<TraceName>(
            static_cast<int>(TraceName::PhaseAlloc) +
            static_cast<int>(kind));
    };

    // Emit spans per lane ordered by (start asc, end desc): this
    // yields the non-decreasing starts and outermost-first nesting
    // the trace invariants require, independent of the order phases
    // were recorded in.
    for (std::size_t lane = 0; lane < timeline.laneCount(); ++lane) {
        std::vector<const Phase *> spans;
        for (const Phase &phase : timeline.phases()) {
            if (phase.lane == lane)
                spans.push_back(&phase);
        }
        std::stable_sort(spans.begin(), spans.end(),
                         [](const Phase *a, const Phase *b) {
                             if (a->start != b->start)
                                 return a->start < b->start;
                             return a->end > b->end;
                         });
        for (const Phase *phase : spans) {
            tracer.span(TraceCategory::Phase, phaseName(phase->kind),
                        laneMap[lane], phase->start, phase->end, 0, 0,
                        phase->label);
        }
    }
    for (const Phase &phase : timeline.instants()) {
        tracer.instant(TraceCategory::Phase, phaseName(phase.kind),
                       laneMap[phase.lane], phase.start, 0,
                       phase.label);
    }
}

std::string
Timeline::gantt(std::size_t width) const
{
    UVMASYNC_ASSERT(width >= 8, "gantt width %zu too small", width);
    Tick span = makespan();
    if (span == 0)
        return "(empty timeline)\n";

    std::size_t nameWidth = 0;
    for (const std::string &name : laneNames_)
        nameWidth = std::max(nameWidth, name.size());

    std::vector<std::string> rows(laneNames_.size(),
                                  std::string(width, '.'));
    for (const Phase &phase : phases_) {
        auto begin = static_cast<std::size_t>(
            static_cast<double>(phase.start) /
            static_cast<double>(span) * static_cast<double>(width));
        auto end = static_cast<std::size_t>(
            static_cast<double>(phase.end) /
            static_cast<double>(span) * static_cast<double>(width));
        begin = std::min(begin, width - 1);
        end = std::min(std::max(end, begin + 1), width);
        for (std::size_t c = begin; c < end; ++c)
            rows[phase.lane][c] = phaseGlyph(phase.kind);
    }

    std::ostringstream oss;
    for (std::size_t lane = 0; lane < rows.size(); ++lane) {
        std::string name = laneNames_[lane];
        name.resize(nameWidth, ' ');
        oss << name << " |" << rows[lane] << "|\n";
    }
    oss << std::string(nameWidth, ' ') << " 0"
        << std::string(width > 10 ? width - 8 : 0, ' ')
        << fmtTime(static_cast<double>(span)) << "\n";
    oss << "legend: a=alloc  >=transfer-in  #=kernel  "
           "<=transfer-out  f=free\n";
    return oss.str();
}

} // namespace uvmasync
