/**
 * @file
 * Result aggregation and rendering: normalized stacked breakdowns
 * (the paper's Figure 7/8 bars as tables), geometric-mean
 * improvements, and paper-vs-measured comparison rows for
 * EXPERIMENTS.md.
 */

#ifndef UVMASYNC_CORE_REPORT_HH
#define UVMASYNC_CORE_REPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "core/experiment.hh"
#include "core/parallel_runner.hh"

namespace uvmasync
{

/** Results of one workload across the five modes. */
using ModeSet = std::vector<ExperimentResult>;

/** Find the entry for @p mode in a ModeSet (fatal if missing). */
const ExperimentResult &findMode(const ModeSet &set, TransferMode mode);

/**
 * Normalized stacked-breakdown table for a group of workloads: each
 * row is workload x mode with kernel/memcpy/alloc fractions relative
 * to the workload's standard overall time (the Figure 7/8 bars).
 */
TextTable breakdownTable(const std::vector<ModeSet> &workloads);

/**
 * Geometric-mean overall-time improvement of @p mode over standard
 * across workloads: positive means faster (the paper's "X%
 * performance over standard").
 */
double geomeanImprovement(const std::vector<ModeSet> &workloads,
                          TransferMode mode);

/**
 * Geometric-mean reduction of one component versus standard across
 * workloads (e.g. the paper's "64.24% memcpy time savings").
 * @param component 0 = alloc, 1 = transfer, 2 = kernel
 */
double geomeanComponentSaving(const std::vector<ModeSet> &workloads,
                              TransferMode mode, int component);

/** One paper-vs-measured comparison line. */
struct ComparisonRow
{
    std::string label;
    double paperValue;    //!< as a fraction (0.21 = 21%)
    double measuredValue; //!< same convention
};

/** Render comparison rows with a pass/deviation column. */
TextTable comparisonTable(const std::vector<ComparisonRow> &rows);

/** Convenience: print a titled table to @p os. */
void printTable(std::ostream &os, const std::string &title,
                const TextTable &table);

/**
 * Render the parallel engine's host-side batch metrics (jobs, wall
 * time, busy time and its pricing share, points/sec, steals) so the
 * speedup of a parallel sweep is observable alongside the simulated
 * results.
 */
TextTable parallelMetricsTable(const BatchMetrics &metrics);

/**
 * Robustness summary of a degraded batch: one row per point that did
 * not produce a result (status, attempts consumed, last error), so a
 * partial sweep states exactly which cells are placeholders and why.
 * Empty (header only) when every point is ok.
 */
TextTable robustnessTable(const std::vector<ExperimentPoint> &points,
                          const BatchResult &batch);

/**
 * The one degraded-run report of every batch caller (CLI verbs,
 * sweeps, Experiment::runAllModes): when any point of @p batch was
 * quarantined, print the "DEGRADED RUN" banner and robustnessTable to
 * stderr, so stdout stays data only. Returns batch.degraded().
 */
bool reportDegradedBatch(const std::vector<ExperimentPoint> &points,
                         const BatchResult &batch);

/**
 * Per-resource utilization summary folded out of traced results: one
 * row per workload x mode with PCIe busy/queueing, fault batching,
 * prefetch accuracy and kernel/transfer overlap (see trace/metrics.hh
 * for the underlying quantities). Untraced results are skipped.
 */
TextTable traceUtilizationTable(const std::vector<ModeSet> &workloads);

} // namespace uvmasync

#endif // UVMASYNC_CORE_REPORT_HH
