#include "core/report.hh"

#include <cmath>
#include <iostream>

#include "common/logging.hh"
#include "common/stats.hh"
#include "trace/metrics.hh"

namespace uvmasync
{

const ExperimentResult &
findMode(const ModeSet &set, TransferMode mode)
{
    for (const ExperimentResult &res : set) {
        if (res.mode == mode)
            return res;
    }
    fatal("mode %s missing from result set", transferModeName(mode));
}

TextTable
breakdownTable(const std::vector<ModeSet> &workloads)
{
    TextTable table({"workload", "mode", "gpu_kernel", "memcpy",
                     "allocation", "overall"});
    for (const ModeSet &set : workloads) {
        const ExperimentResult &base =
            findMode(set, TransferMode::Standard);
        double ref = base.meanBreakdown().overallPs();
        for (const ExperimentResult &res : set) {
            TimeBreakdown mean = res.meanBreakdown();
            table.addRow({res.workload, transferModeName(res.mode),
                          fmtDouble(mean.kernelPs / ref, 3),
                          fmtDouble(mean.transferPs / ref, 3),
                          fmtDouble(mean.allocPs / ref, 3),
                          fmtDouble(mean.overallPs() / ref, 3)});
        }
        table.addSeparator();
    }
    return table;
}

double
geomeanImprovement(const std::vector<ModeSet> &workloads,
                   TransferMode mode)
{
    std::vector<double> speedups;
    speedups.reserve(workloads.size());
    for (const ModeSet &set : workloads) {
        double base = findMode(set, TransferMode::Standard)
                          .meanBreakdown()
                          .overallPs();
        double other = findMode(set, mode).meanBreakdown().overallPs();
        UVMASYNC_ASSERT(other > 0.0, "zero overall time");
        speedups.push_back(base / other);
    }
    return geomean(speedups) - 1.0;
}

double
geomeanComponentSaving(const std::vector<ModeSet> &workloads,
                       TransferMode mode, int component)
{
    auto pick = [component](const TimeBreakdown &b) {
        switch (component) {
          case 0: return b.allocPs;
          case 1: return b.transferPs;
          default: return b.kernelPs;
        }
    };
    std::vector<double> ratios;
    for (const ModeSet &set : workloads) {
        double base = pick(
            findMode(set, TransferMode::Standard).meanBreakdown());
        double other = pick(findMode(set, mode).meanBreakdown());
        if (base <= 0.0 || other <= 0.0)
            continue;
        ratios.push_back(other / base);
    }
    if (ratios.empty())
        return 0.0;
    return 1.0 - geomean(ratios);
}

TextTable
comparisonTable(const std::vector<ComparisonRow> &rows)
{
    TextTable table({"metric", "paper", "measured", "delta"});
    for (const ComparisonRow &row : rows) {
        table.addRow({row.label, fmtPercent(row.paperValue),
                      fmtPercent(row.measuredValue),
                      fmtPercent(row.measuredValue - row.paperValue)});
    }
    return table;
}

void
printTable(std::ostream &os, const std::string &title,
           const TextTable &table)
{
    os << "\n== " << title << " ==\n";
    table.print(os);
    os.flush();
}

TextTable
parallelMetricsTable(const BatchMetrics &metrics)
{
    // busy/wall is the average number of tasks in flight, an upper
    // bound on the speedup actually realised (they coincide when the
    // machine has at least `jobs` free cores). busy_ms includes the
    // lint pricing tasks, whose share is pricing_ms.
    TextTable table({"jobs", "points", "wall_ms", "busy_ms",
                     "pricing_ms", "points_per_sec", "concurrency",
                     "steals", "cache_hits"});
    double concurrency = metrics.wallMs > 0.0
                             ? metrics.busyMs / metrics.wallMs
                             : 0.0;
    table.addRow({std::to_string(metrics.jobs),
                  std::to_string(metrics.points),
                  fmtDouble(metrics.wallMs, 1),
                  fmtDouble(metrics.busyMs, 1),
                  fmtDouble(metrics.pricingMs, 1),
                  fmtDouble(metrics.pointsPerSec, 1),
                  fmtDouble(concurrency, 2),
                  std::to_string(metrics.steals),
                  std::to_string(metrics.cacheHits)});
    return table;
}

TextTable
robustnessTable(const std::vector<ExperimentPoint> &points,
                const BatchResult &batch)
{
    TextTable table(
        {"workload", "mode", "status", "attempts", "error"});
    for (std::size_t i = 0;
         i < points.size() && i < batch.points.size(); ++i) {
        const PointOutcome &out = batch.points[i];
        if (out.ok)
            continue;
        table.addRow({points[i].workload,
                      transferModeName(points[i].mode),
                      pointStatusName(out.status),
                      std::to_string(out.attempts), out.error});
    }
    return table;
}

bool
reportDegradedBatch(const std::vector<ExperimentPoint> &points,
                    const BatchResult &batch)
{
    if (!batch.degraded())
        return false;
    warn("DEGRADED RUN: %zu of %zu points quarantined after retries; "
         "results are partial",
         batch.quarantined(), batch.points.size());
    if (logLevel() >= LogLevel::Warn)
        printTable(std::cerr, "robustness (quarantined points)",
                   robustnessTable(points, batch));
    return true;
}

TextTable
traceUtilizationTable(const std::vector<ModeSet> &workloads)
{
    TextTable table({"workload", "mode", "wall", "pcie busy",
                     "queue wait", "faults/batches", "prefetch acc",
                     "overlap"});
    for (const ModeSet &set : workloads) {
        for (const ExperimentResult &res : set) {
            if (res.trace.empty())
                continue;
            TraceMetrics m = computeTraceMetrics(res.trace);
            table.addRow(
                {res.workload, transferModeName(res.mode),
                 fmtTime(static_cast<double>(m.wallEndPs)),
                 fmtTime(static_cast<double>(m.pcieBusyPs)),
                 fmtTime(static_cast<double>(m.pcieQueueWaitPs)),
                 std::to_string(m.faultsRaised) + "/" +
                     std::to_string(m.faultBatches),
                 m.prefetchIssued ? fmtPercent(m.prefetchAccuracy)
                                  : std::string("-"),
                 fmtPercent(m.overlapFraction)});
        }
    }
    return table;
}

} // namespace uvmasync
