#include "core/experiment.hh"

#include <algorithm>
#include <utility>

#include "common/rng.hh"
#include "core/parallel_runner.hh"
#include "core/report.hh"
#include "runtime/noise_model.hh"
#include "workloads/registry.hh"

namespace uvmasync
{

TimeBreakdown
ExperimentResult::meanBreakdown() const
{
    TimeBreakdown sum;
    if (runs.empty())
        return clean;
    for (const TimeBreakdown &b : runs)
        sum += b;
    return sum * (1.0 / static_cast<double>(runs.size()));
}

SampleSet
ExperimentResult::overallSamples() const
{
    SampleSet set;
    for (const TimeBreakdown &b : runs)
        set.add(b.overallPs());
    return set;
}

Experiment::Experiment(SystemConfig system) : system_(system)
{
    registerAllWorkloads();
}

namespace
{

std::string
lintSubject(const std::string &workloadName, SizeClass size)
{
    return workloadName + " @ " + std::string(sizeClassName(size));
}

} // namespace

ExperimentResult
Experiment::run(const std::string &workloadName, TransferMode mode,
                const ExperimentOptions &opts)
{
    return gateAndRun(ExperimentPoint{workloadName, mode, opts}, {mode});
}

ExperimentResult
Experiment::simulate(const ExperimentPoint &point)
{
    return gateAndRun(point, {});
}

void
Experiment::price(const std::string &workloadName,
                  const ExperimentOptions &opts,
                  const std::vector<TransferMode> &modes)
{
    Job job = WorkloadRegistry::instance().get(workloadName).makeJob(
        opts.size, opts.geometry);
    enforceBatchLint(system_, job, lintSubject(workloadName, opts.size),
                     opts.lint, modes);
}

ExperimentResult
Experiment::gateAndRun(const ExperimentPoint &point,
                       const std::vector<TransferMode> &pricedModes)
{
    const std::string &workloadName = point.workload;
    const ExperimentOptions &opts = point.opts;
    Job job = point.jobFile ? point.jobFile->job
                            : WorkloadRegistry::instance()
                                  .get(workloadName)
                                  .makeJob(opts.size, opts.geometry);

    enforceBatchLint(system_, job, lintSubject(workloadName, opts.size),
                     opts.lint, pricedModes);

    Device device(system_);
    Tracer tracer;
    tracer.setCategoryFilter(opts.traceCategories);
    // The injector's streams derive only from (inject seed, point
    // seed), never from scheduling, so `--jobs N` replays an injected
    // batch byte-identically to serial.
    std::uint64_t injectSeed =
        opts.injectSeed ? opts.injectSeed : opts.inject.seed;
    Injector injector(opts.inject,
                      injectSalt(injectSeed, opts.baseSeed));
    RunOptions runOpts;
    runOpts.sharedCarveout = opts.sharedCarveout;
    runOpts.seed = opts.baseSeed;
    runOpts.pinnedHost = point.jobFile && point.jobFile->pinned;
    runOpts.tracer = opts.trace ? &tracer : nullptr;
    runOpts.injector = &injector;
    RunResult det = device.run(job, point.mode, runOpts);

    // The straddle check applies to the job's whole host footprint —
    // the paper's Mega effect appears when the job's data approaches
    // a single DRAM module's capacity (Section 3.3 / Figure 6).
    Bytes footprint = job.footprint();

    ExperimentResult res;
    res.workload = workloadName;
    res.mode = point.mode;
    res.size = opts.size;
    res.clean = det.breakdown;
    res.counters = det.counters;
    res.trace = std::move(tracer);
    res.injectCounters = injector.counters();
    res.runs.reserve(opts.runs);

    NoiseModel noise(system_.noise, device.hostMemory());
    for (std::uint32_t i = 0; i < opts.runs; ++i) {
        // One stream per (workload, run) — deliberately NOT per mode,
        // so the five configurations see the same machine conditions
        // in run i and small clean-value differences (async vs
        // standard) are not swamped by sampling error.
        std::uint64_t seed = opts.baseSeed;
        seed = seed * 1099511628211ull + std::hash<std::string>{}(
                                             workloadName);
        seed = seed * 1099511628211ull + i;
        Rng rng(seed);
        res.runs.push_back(
            noise.perturb(det.breakdown, footprint, rng));
    }
    return res;
}

std::vector<ExperimentResult>
Experiment::runAllModes(const std::string &workloadName,
                        const ExperimentOptions &opts)
{
    // Fan the five modes out through the parallel engine. Each point
    // keeps the cell's baseSeed unchanged (NOT a per-mode stream):
    // the noise model deliberately shares run-i machine conditions
    // across modes, and the engine's submission-order merge keeps the
    // output byte-identical to the serial loop this replaces.
    std::vector<ExperimentPoint> points;
    points.reserve(allTransferModes.size());
    for (TransferMode mode : allTransferModes)
        points.push_back(ExperimentPoint{workloadName, mode, opts});
    ParallelRunner runner(system_);
    BatchResult batch = runner.runPoints(points);

    // A failed mode degrades the set instead of killing it: its cell
    // keeps a zeroed placeholder and the caller sees a banner.
    reportDegradedBatch(points, batch);
    std::vector<ExperimentResult> results;
    results.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointOutcome &out = batch.points[i];
        results.push_back(out.ok ? out.result
                                 : quarantinedPlaceholder(points[i]));
    }
    return results;
}

} // namespace uvmasync
