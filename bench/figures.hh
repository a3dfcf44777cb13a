/**
 * @file
 * The paper's tables and figures, and our ablations, as functions of
 * one `figures` binary (figures.cc has the table of them and main).
 *
 * Every figure prints its report tables to stdout. Figures on the
 * default testbed take their results from one shared ResultCache, so
 * a point that several figures use simulates once per process; the
 * ablations change the testbed and run their own points.
 */

#ifndef UVMASYNC_BENCH_FIGURES_HH
#define UVMASYNC_BENCH_FIGURES_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/report.hh"
#include "core/sweep.hh"
#include "workloads/registry.hh"

namespace uvmasync
{
namespace bench
{

/**
 * In-process results of the default (A100 + EPYC) testbed, keyed on
 * pointConfigHash, so two points share an entry only when every
 * option a caller can choose is equal.
 */
class ResultCache
{
  public:
    /**
     * Run every point of @p points that is not cached yet as one
     * ParallelRunner batch (globalJobs() workers) and cache the
     * results. Results are those of a serial run at any job count.
     */
    void prefetch(const std::vector<ExperimentPoint> &points);

    /** prefetch() of every (workload x mode) point at each of @p opts. */
    void prefetchGrid(const std::vector<std::string> &workloads,
                      const std::vector<ExperimentOptions> &opts);

    /** One point's result, simulated first if it is not cached. */
    const ExperimentResult &get(const ExperimentPoint &point);

    /** The five modes of one workload, in allTransferModes order. */
    ModeSet modes(const std::string &workload,
                  const ExperimentOptions &opts);

    /** A sensitivity sweep's grid, reassembled in sweep order. */
    std::vector<SweepPoint> sweep(const SweepGrid &grid);

    /** Engine metrics summed over every batch so far. */
    const BatchMetrics &engineMetrics() const { return engine_; }

  private:
    std::map<std::uint64_t, ExperimentResult> cache_;
    BatchMetrics engine_;
};

/** @{ One function per table, figure and ablation (in paper order). */
void table1Config(ResultCache &cache);
void table2Programs(ResultCache &cache);
void table3Sizes(ResultCache &cache);
void fig4Distribution(ResultCache &cache);
void fig5Stability(ResultCache &cache);
void fig6MegaBreakdown(ResultCache &cache);
void fig7Micro(ResultCache &cache);
void fig8Apps(ResultCache &cache);
void fig9InstMix(ResultCache &cache);
void fig10CacheMiss(ResultCache &cache);
void fig11Blocks(ResultCache &cache);
void fig12Threads(ResultCache &cache);
void fig13SharedMem(ResultCache &cache);
void fig14InterJob(ResultCache &cache);
void ablationFaultBatch(ResultCache &cache);
void ablationPrefetcher(ResultCache &cache);
void ablationPcie(ResultCache &cache);
void ablationPinned(ResultCache &cache);
void ablationAsyncApi(ResultCache &cache);
/** @} */

} // namespace bench
} // namespace uvmasync

#endif // UVMASYNC_BENCH_FIGURES_HH
