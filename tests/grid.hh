/**
 * @file
 * Test grids: expand a (workloads x modes x trials) grid into
 * experiment points whose seeds are counter-derived, so trials are
 * independent replicas with no shared RNG state. Entry points build
 * their own points and seed every point with the cell's baseSeed;
 * these helpers exist for the tests that want independent trials.
 */

#ifndef UVMASYNC_TESTS_GRID_HH
#define UVMASYNC_TESTS_GRID_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stable_hash.hh"
#include "core/parallel_runner.hh"

namespace uvmasync
{

/**
 * Seed of one grid point: a stable (FNV-1a + splitmix64) hash of
 * (baseSeed, workload, mode, trial). Equal keys give equal seeds; any
 * differing component gives a statistically independent stream.
 * Machine-independent.
 */
inline std::uint64_t
pointSeed(std::uint64_t baseSeed, const std::string &workload,
          TransferMode mode, std::uint32_t trial)
{
    return StableHasher()
        .u64(baseSeed)
        .bytes(workload.data(), workload.size())
        .u64(static_cast<std::uint64_t>(mode))
        .u64(trial)
        .hash();
}

/**
 * The points of a (workloads x modes x trials) grid in canonical
 * submission order (workload-major, then mode, then trial). Each
 * point's baseSeed is pointSeed(...) of its key.
 */
inline std::vector<ExperimentPoint>
expandGrid(const std::vector<std::string> &workloads,
           const std::vector<TransferMode> &modes, std::uint32_t trials,
           const ExperimentOptions &base)
{
    std::vector<ExperimentPoint> points;
    points.reserve(workloads.size() * modes.size() * trials);
    for (const std::string &workload : workloads) {
        for (TransferMode mode : modes) {
            for (std::uint32_t trial = 0; trial < trials; ++trial) {
                ExperimentPoint point;
                point.workload = workload;
                point.mode = mode;
                point.opts = base;
                point.opts.baseSeed =
                    pointSeed(base.baseSeed, workload, mode, trial);
                points.push_back(std::move(point));
            }
        }
    }
    return points;
}

} // namespace uvmasync

#endif // UVMASYNC_TESTS_GRID_HH
