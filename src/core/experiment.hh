/**
 * @file
 * The experiment harness: runs a workload under a transfer mode at an
 * input size, repeats it with per-run measurement noise (the paper's
 * 30-iteration methodology), and aggregates breakdowns and counters.
 */

#ifndef UVMASYNC_CORE_EXPERIMENT_HH
#define UVMASYNC_CORE_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/lint.hh"
#include "common/stats.hh"
#include "gpu/transfer_mode.hh"
#include "inject/injector.hh"
#include "runtime/device.hh"
#include "runtime/system_config.hh"
#include "runtime/time_breakdown.hh"
#include "workloads/workload.hh"

namespace uvmasync
{

/** Per-experiment knobs. */
struct ExperimentOptions
{
    SizeClass size = SizeClass::Super;

    /** Measurement repetitions (paper: 30). */
    std::uint32_t runs = 30;

    std::uint64_t baseSeed = 42;

    /** L1/shared partition override (Figure 13); 0 = default. */
    Bytes sharedCarveout = 0;

    /** Launch-geometry override (Figures 11/12). */
    GeometryOverride geometry;

    /**
     * Pre-run static lint of the generated job: Enforce refuses to
     * simulate a model with error-severity findings (the default),
     * Warn reports and runs anyway, Off skips the linter.
     */
    LintMode lint = LintMode::Enforce;

    /**
     * Record the deterministic execution's trace into
     * ExperimentResult::trace (noisy repetitions only perturb the
     * breakdown and are not traced).
     */
    bool trace = false;

    /** Category mask applied when tracing (trace/trace.hh bits). */
    std::uint32_t traceCategories = traceAllCategories;

    /**
     * Fault-injection plan for the deterministic execution; the
     * default plan is inert, making the run byte-identical to one
     * with no injection support at all.
     */
    InjectPlan inject;

    /**
     * Seed of the injector's RNG streams; 0 uses the plan's own
     * `inject.seed`. Combined with baseSeed per point, so injected
     * parallel batches replay byte-identically to serial.
     */
    std::uint64_t injectSeed = 0;
};

/** Aggregated outcome of one (workload, mode, options) cell. */
struct ExperimentResult
{
    std::string workload;
    TransferMode mode = TransferMode::Standard;
    SizeClass size = SizeClass::Super;

    /** Deterministic single-execution breakdown. */
    TimeBreakdown clean;

    /** Hardware counters of the deterministic execution. */
    RunCounters counters;

    /** Noisy per-run breakdowns (length = options.runs). */
    std::vector<TimeBreakdown> runs;

    /** Deterministic execution's trace (empty unless options.trace). */
    Tracer trace;

    /** What the injector actually did (all zero when not injecting). */
    InjectCounters injectCounters;

    /** Mean of the noisy breakdowns. */
    TimeBreakdown meanBreakdown() const;

    /** Overall times (ps) of the noisy runs as a sample set. */
    SampleSet overallSamples() const;
};

struct ExperimentPoint;

/**
 * Drives Devices and the noise model over the workload registry.
 */
class Experiment
{
  public:
    explicit Experiment(SystemConfig system = SystemConfig::a100Epyc());

    /** Run one cell; its lint gate prices the job for @p mode. */
    ExperimentResult run(const std::string &workloadName,
                         TransferMode mode,
                         const ExperimentOptions &opts = {});

    /**
     * Run one point of a batch that prices each job in a task of its
     * own (ParallelRunner): the gate runs only the structural passes,
     * the only ones that can refuse the point, then the point
     * simulates its registry workload or its job file.
     */
    ExperimentResult simulate(const ExperimentPoint &point);

    /**
     * Price one job of a batch: the full gate (enforceBatchLint)
     * with the dominated-mode advisory (UAL020) evaluated for each
     * of @p modes. Prints its findings and the advisor line. Under
     * LintMode::Enforce a structural error fatal()s, as in run().
     * Simulates nothing.
     */
    void price(const std::string &workloadName,
               const ExperimentOptions &opts,
               const std::vector<TransferMode> &modes);

    /** Run all five modes for one workload. */
    std::vector<ExperimentResult>
    runAllModes(const std::string &workloadName,
                const ExperimentOptions &opts = {});

  private:
    /** Gate the point, pricing @p pricedModes (none: structural
     * passes only), then simulate it. */
    ExperimentResult gateAndRun(const ExperimentPoint &point,
                                const std::vector<TransferMode> &pricedModes);

    SystemConfig system_;
};

} // namespace uvmasync

#endif // UVMASYNC_CORE_EXPERIMENT_HH
