/**
 * @file
 * The traced step-through of one point: the public steps that
 * Experiment::run takes, in the same order, each wrapped in a span —
 * Workload::makeJob, enforceLint, Device::run, the noise loop — then
 * Device::stats(), the simulated trace metrics, and a replay of each
 * distinct kernel through simulateL1 to time the L1 model.
 */

#ifndef PERFBENCH_STEP_HH
#define PERFBENCH_STEP_HH

#include <cstdint>
#include <string>

#include "core/parallel_runner.hh"
#include "sim/sim_object.hh"
#include "spans.hh"
#include "trace/metrics.hh"

namespace perfbench
{

/** Outcome of one stepped point. */
struct SteppedPoint
{
    bool ok = false;
    std::string error;

    uvmasync::ExperimentResult result;
    uvmasync::StatMap stats;
    uvmasync::TraceMetrics metrics;

    /** The point's job and its Device::run span (for replayL1). */
    uvmasync::Job job;
    std::uint64_t deviceRunSpan = 0;

    /** Distinct kernels replayed through simulateL1. */
    std::uint64_t l1Replays = 0;

    /** Host ms of the steps (point = the Experiment::run steps). */
    double pointMs = 0.0;
    double deviceRunMs = 0.0;
    double l1ReplayMs = 0.0;
};

/**
 * Step through @p point. With @p spans set, records the point's
 * spans under request id @p request.
 */
SteppedPoint stepPoint(const uvmasync::SystemConfig &system,
                       const uvmasync::ExperimentPoint &point,
                       SpanLog *spans, std::uint64_t request);

/**
 * Replay each distinct kernel of a stepped point through simulateL1,
 * as Device::run does once per kernel name. The replay runs after the
 * point, so its spans hang under the Device::run span: self-time
 * arithmetic then charges that share of Device::run to gpu.
 */
void replayL1(const uvmasync::SystemConfig &system,
              const uvmasync::ExperimentPoint &point, SteppedPoint &stepped,
              SpanLog *spans, std::uint64_t request);

/** Device::stats() entry @p key ("hbm.evictions"), 0 when absent. */
double statValue(const uvmasync::StatMap &stats, const std::string &key);

} // namespace perfbench

#endif // PERFBENCH_STEP_HH
