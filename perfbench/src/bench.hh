/**
 * @file
 * Shared state of one benchmark run and the helpers both harnesses use:
 * output checks, the parallel traced step-through, and the per-layer
 * metrics folded out of it.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/parallel_runner.hh"
#include "digest.hh"
#include "spans.hh"
#include "step.hh"

namespace perfbench
{

/** Command-line options of one run. */
struct BenchOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned jobs = 4;       //!< in-process workers: min(4, nproc)
    std::string workDir;     //!< scratch space for stores/journals
    const Reference *reference = nullptr;
    uvmasync::SystemConfig system = uvmasync::SystemConfig::a100Epyc();
};

/** A metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Everything one run measured. */
struct RunReport
{
    std::size_t attempted = 0;  //!< points attempted
    std::size_t failed = 0;     //!< points that failed or were quarantined
    std::size_t mismatched = 0; //!< ok points whose output differs
    std::size_t missing = 0;    //!< ok points absent from the reference

    std::vector<double> setupS;      //!< one per set-up repetition
    std::vector<double> latenciesMs; //!< one per request
    double measuredS = 0.0;          //!< wall time of the timed passes
    std::size_t pointsDone = 0;      //!< points completed while timed
    std::size_t passes = 0;
    std::vector<double> passMs;      //!< wall time of each timed pass

    /**
     * Per-layer metrics (traced): the manifest's, which run.py prints,
     * plus a few that are zero on some workloads (mem.evictions,
     * core.steals, error counts), kept for the report and result file.
     */
    std::map<std::string, Metric> layer;
    std::vector<std::string> notes;      //!< human-readable report lines
    SpanLog spans;
};

/**
 * Check one merged outcome against the reference: counts the point
 * as attempted, and as failed when it has no result or its result
 * digest does not match.
 */
void checkOutcome(const BenchOptions &opt, RunReport &report,
                  const uvmasync::ExperimentPoint &point,
                  const uvmasync::PointOutcome &outcome);

/** Reference key of a point. */
std::string keyOf(const uvmasync::ExperimentPoint &point);

/**
 * Step through @p points on @p jobs threads (each point under request
 * id base + index), then replay their kernels through simulateL1;
 * returns the results in point order.
 */
std::vector<SteppedPoint>
stepAll(const BenchOptions &opt,
        const std::vector<uvmasync::ExperimentPoint> &points, unsigned jobs,
        SpanLog &spans, std::uint64_t requestBase);

/**
 * Check traced digests (result and model) of stepped points, then
 * fold their spans and counters into report.layer: workloads,
 * analysis, runtime, gpu, mem and xfer metrics.
 */
void foldStepped(const BenchOptions &opt, RunReport &report,
                 const std::vector<uvmasync::ExperimentPoint> &points,
                 const std::vector<SteppedPoint> &stepped);

/**
 * trace.slowdown (traced ÷ untraced per-point busy time over the same
 * points) and trace.overhead_share (1 − untraced ÷ traced), from
 * per-point busy time, so the two passes' scheduling does not enter.
 */
void foldTracing(RunReport &report, const uvmasync::BatchResult &untraced,
                 const std::vector<SteppedPoint> &traced);

/** core.* metrics from batch outcomes of the untraced entry point. */
void foldCore(RunReport &report,
              const std::vector<uvmasync::BatchResult> &batches);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Create @p dir and its parents; false + error on failure. */
bool makeDirs(const std::string &dir, std::string &error);

/** Remove @p path recursively (best effort). */
void removeTree(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
