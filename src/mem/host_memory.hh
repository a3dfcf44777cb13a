/**
 * @file
 * Host DRAM model.
 *
 * Captures the effect the paper root-causes in Figure 6: once a
 * buffer's footprint approaches the capacity of a single DRAM module,
 * part of the data lands on another module with a different effective
 * path to the PCIe root, making host-side transfer bandwidth a random
 * variable across runs. Below that regime bandwidth is stable.
 */

#ifndef UVMASYNC_MEM_HOST_MEMORY_HH
#define UVMASYNC_MEM_HOST_MEMORY_HH

#include <string>

#include "common/rng.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "sim/sim_object.hh"

namespace uvmasync
{

class Injector;

/** Configuration of the host memory system (Table 1's 16x 64 GB). */
struct HostMemoryConfig
{
    std::size_t dimmCount = 16;
    Bytes dimmCapacity = gib(64);
    Bandwidth readBandwidth = Bandwidth::fromGBps(190.0);

    /**
     * Fraction of single-module capacity above which a buffer is
     * likely to straddle modules (the Mega effect in Fig. 6).
     */
    double straddleThreshold = 0.45;

    /**
     * Worst-case slowdown of the host-side transfer path when the
     * placement is unlucky; the per-run factor is drawn uniformly in
     * [1, straddlePenalty].
     */
    double straddlePenalty = 3.0;

    /**
     * Footprint span (as a fraction of module capacity) over which
     * the spilled share ramps from 0 to 1 once past the threshold.
     */
    double spillSpanFraction = 0.15;
};

/**
 * Host DRAM: capacity accounting plus the placement-noise model.
 */
class HostMemory : public SimObject
{
  public:
    HostMemory(std::string name, HostMemoryConfig cfg);

    const HostMemoryConfig &config() const { return cfg_; }

    /**
     * Whether a buffer of @p footprint bytes risks straddling DRAM
     * modules (per-allocation, the dominant buffer decides).
     */
    bool straddles(Bytes footprint) const;

    /**
     * Per-run host-path bandwidth multiplier in (0, 1]. Draws from
     * @p rng; deterministic given the run's seed. Returns 1.0 when
     * the footprint is comfortably within one module.
     */
    double placementFactor(Bytes footprint, Rng &rng);

    /**
     * Attach the fault injector (null detaches): transfers issued
     * inside an injected slow-page window may hit a degraded DIMM.
     */
    void setInjector(Injector *inject) { inject_ = inject; }

    /**
     * Per-transfer host-path multiplier in (0, 1] at @p now — the
     * transient (slow-page) counterpart of the per-run
     * placementFactor(). 1.0 whenever no injector is attached, so
     * the clean path is untouched.
     */
    double transferPathFactor(Tick now);

    void exportStats(StatMap &out) const override;

  private:
    HostMemoryConfig cfg_;
    std::uint64_t straddledRuns_ = 0;
    std::uint64_t sampledRuns_ = 0;
    Injector *inject_ = nullptr;
};

} // namespace uvmasync

#endif // UVMASYNC_MEM_HOST_MEMORY_HH
