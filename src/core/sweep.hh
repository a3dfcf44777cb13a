/**
 * @file
 * Sensitivity sweeps (Section 5): CUDA block count, threads per
 * block, and L1-cache/shared-memory partition.
 */

#ifndef UVMASYNC_CORE_SWEEP_HH
#define UVMASYNC_CORE_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/parallel_runner.hh"
#include "core/report.hh"

namespace uvmasync
{

/** One sweep point: a parameter value and its five-mode results. */
struct SweepPoint
{
    std::uint64_t value = 0; //!< blocks, threads, or carveout bytes
    ModeSet modes;
};

/**
 * A sweep's (value x mode) grid before execution: one ExperimentPoint
 * per cell, value-major then mode — the canonical submission order.
 * Callers run the grid through ParallelRunner under their own batch
 * policy (journal, store, retries) and reassemble the outcome in
 * sweep order with assembleSweepPoints(), so output is independent
 * of the job count.
 */
struct SweepGrid
{
    std::vector<std::uint64_t> values;
    std::vector<ExperimentPoint> points;
};

/** @{
 * Grid builders of the paper's three sensitivity studies (vector_seq
 * in the paper). Figure 11: block counts at 256 threads/block unless
 * @p base sets a thread count. Figure 12: thread counts at a fixed
 * block count. Figure 13: shared-memory carveouts. An empty value
 * list is a usage error and trips an assertion — a sweep of zero
 * points has no meaningful result shape.
 */
SweepGrid blockSweepGrid(const std::string &workload,
                         const std::vector<std::uint64_t> &blockCounts,
                         const ExperimentOptions &base = {});
SweepGrid threadSweepGrid(const std::string &workload,
                          const std::vector<std::uint32_t> &threadCounts,
                          std::uint64_t fixedBlocks,
                          const ExperimentOptions &base = {});
SweepGrid sharedMemSweepGrid(const std::string &workload,
                             const std::vector<Bytes> &carveouts,
                             const ExperimentOptions &base = {});
/** @} */

/**
 * Fold a grid's batch outcome back into sweep order. Quarantined
 * cells carry quarantinedPlaceholder() results, so a degraded sweep
 * still has its full shape; check batch.degraded() to report it.
 */
std::vector<SweepPoint> assembleSweepPoints(const SweepGrid &grid,
                                            const BatchResult &batch);

} // namespace uvmasync

#endif // UVMASYNC_CORE_SWEEP_HH
