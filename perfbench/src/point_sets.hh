/**
 * @file
 * The benchmark's workloads: fixed point sets and the seed pool.
 *
 * Simulated outputs depend on the points' base seed, and every output
 * is checked against a committed reference, so simulation seeds come
 * from a fixed pool of seedPoolSize values. The benchmark's --seed
 * picks the pool slot (and, for campaign_mixed, the per-pass cold
 * seeds); the point sets themselves never change.
 */

#ifndef PERFBENCH_POINT_SETS_HH
#define PERFBENCH_POINT_SETS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/batch_spec.hh"

namespace perfbench
{

inline constexpr std::size_t seedPoolSize = 32;

/** Simulation seed of pool slot @p slot (slot 0 is the CLI's 42). */
std::uint64_t poolSeed(std::size_t slot);

/** Pool slot the benchmark seed @p benchSeed selects. */
std::size_t seedSlot(std::uint64_t benchSeed);

/** True when @p name is one of the benchmark's workloads. */
bool knownWorkload(const std::string &name);

/** All workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** True for the daemon-driven workload (campaign_mixed). */
bool isCampaign(const std::string &name);

/**
 * Requests of @p workload with every point at simulation seed
 * @p seed: one BatchSpec per in-process group of points, or per
 * campaign batch (one workload and size, all five modes).
 */
std::vector<uvmasync::BatchSpec> workloadSpecs(const std::string &name,
                                               std::uint64_t seed);

/** Points of @p specs in submission order (batchSpecPoints each). */
std::vector<uvmasync::ExperimentPoint>
expandSpecs(const std::vector<uvmasync::BatchSpec> &specs);

/** Campaign batches whose results are pre-warmed into the store. */
bool campaignWarm(std::size_t batchIndex);

/**
 * Index, within workloadSpecs' points, of the in-process warm-up
 * point run during set-up (the cheapest point of the set).
 */
std::size_t warmupPoint(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_POINT_SETS_HH
