/**
 * @file
 * Execution timelines: the phases of a job (allocation, transfers,
 * kernels, frees) on their hardware lanes, with an ASCII Gantt
 * renderer. The paper's Figure 14 is exactly such a chart; the
 * Device records one per run and the batch scheduler emits one per
 * scheduling model.
 */

#ifndef UVMASYNC_RUNTIME_TIMELINE_HH
#define UVMASYNC_RUNTIME_TIMELINE_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/trace.hh"

namespace uvmasync
{

/** What a phase does (selects the Gantt glyph). */
enum class PhaseKind
{
    Alloc,       //!< cudaMalloc/cudaMallocManaged
    TransferIn,  //!< H2D copy / migration / prefetch
    Kernel,      //!< GPU kernel execution
    TransferOut, //!< D2H copy / writeback
    Free,        //!< cudaFree
};

/** Glyph used for a phase kind in the Gantt chart. */
char phaseGlyph(PhaseKind kind);

/** One phase occupying a lane for a time window. */
struct Phase
{
    PhaseKind kind;
    std::string label;
    Tick start = 0;
    Tick end = 0;
    std::size_t lane = 0;
};

/**
 * An ordered collection of phases across named lanes.
 */
class Timeline
{
  public:
    Timeline() = default;

    /** Define lane @p index's display name (lanes are dense). */
    void setLaneName(std::size_t index, std::string name);

    /**
     * Record a phase. Zero-length phases don't occupy the Gantt
     * chart, but they are real moments (an instantaneous free, a
     * no-op writeback) — they are kept separately and surface as
     * instant events in the trace exporter.
     */
    void add(PhaseKind kind, std::string label, Tick start, Tick end,
             std::size_t lane);

    const std::vector<Phase> &phases() const { return phases_; }

    /** Zero-length phases, in recording order. */
    const std::vector<Phase> &instants() const { return instants_; }

    std::size_t laneCount() const { return laneNames_.size(); }

    /** Display name of lane @p index. */
    const std::string &laneName(std::size_t index) const
    {
        return laneNames_[index];
    }

    /** Last phase end (0 when empty). */
    Tick makespan() const;

    /**
     * Render an ASCII Gantt chart: one row per lane, @p width
     * columns spanning [0, makespan]. Overlapping phases on a lane
     * overwrite left to right.
     */
    std::string gantt(std::size_t width = 72) const;

  private:
    std::vector<Phase> phases_;
    std::vector<Phase> instants_;
    std::vector<std::string> laneNames_;
};

/**
 * Re-emit @p timeline into @p tracer as Phase-category events: one
 * span per phase and one instant per zero-length entry, on tracer
 * lanes matching the timeline's lane names. Lanes are created in
 * timeline order if absent.
 */
void exportTimelineToTrace(const Timeline &timeline, Tracer &tracer);

} // namespace uvmasync

#endif // UVMASYNC_RUNTIME_TIMELINE_HH
