/**
 * @file
 * In-process workloads (oversub_mega, darknet_tiny): whole points
 * through ParallelRunner::runPoints, the entry point of `uvmasync run`
 * and the figure benches.
 */

#include "harness.hh"

#include "point_sets.hh"
#include "service.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace uvmasync;

namespace
{

/**
 * One timed pass: run @p points and record each point's latency from
 * the batch submission to its merge (the moment its result is final
 * in submission order). Returns the wall time in ms.
 */
double
timedPass(ParallelRunner &runner, const std::vector<ExperimentPoint> &points,
          BatchResult &batch, std::vector<double> &latenciesMs)
{
    std::vector<Clock::time_point> merged(points.size());
    RunPolicy policy;
    policy.onPointMerged = [&](std::size_t index, const PointOutcome &) {
        merged[index] = Clock::now();
    };
    Clock::time_point start = Clock::now();
    batch = runner.runPoints(points, policy);
    Clock::time_point end = Clock::now();
    for (const Clock::time_point &t : merged)
        latenciesMs.push_back(msBetween(start, t));
    return msBetween(start, end);
}

/**
 * @p specs as batches a daemon accepts: a batch names one mode or all
 * five, so a spec with a few modes becomes one batch per mode.
 */
std::vector<BatchSpec>
servableSpecs(const std::vector<BatchSpec> &specs)
{
    std::vector<BatchSpec> out;
    for (const BatchSpec &s : specs) {
        if (s.modes.size() <= 1) {
            out.push_back(s);
            continue;
        }
        for (TransferMode m : s.modes) {
            out.push_back(s);
            out.back().modes = {m};
        }
    }
    return out;
}

/**
 * The traced run. The workload's points run once untraced as
 * `uvmasync run --store --journal` runs them (a fresh store and
 * journal behind timing decorators: every point misses, simulates, is
 * stored and journaled), then again from the warm store (every point
 * hits). A daemon on that store then serves the workload's batches to
 * the closed-loop clients, all from the store. Last, the same points
 * are stepped with spans on the same worker count.
 */
bool
tracedRun(const BenchOptions &opt, RunReport &report,
          const std::vector<BatchSpec> &specs,
          const std::vector<ExperimentPoint> &points, std::string &error)
{
    const std::string dir = opt.workDir + "/traced";
    ParallelRunner runner(opt.system, opt.jobs);
    BatchResult cold;
    {
        std::unique_ptr<ResultStore> store = openStore(opt, dir + "/store");
        SeamTotals totals;
        cold = runWithSeams(opt, report, runner, *store, points,
                            dir + "/cold.jsonl", 1'000'000, totals);
        runWithSeams(opt, report, runner, *store, points,
                     dir + "/warm.jsonl", 1'000'001, totals);
        foldSeams(report, totals, *store);
    }
    report.passMs.push_back(cold.metrics.wallMs);
    report.measuredS += cold.metrics.wallMs / 1e3;
    report.pointsDone += points.size();
    ++report.passes;
    foldCore(report, {cold});

    Rig rig;
    if (!startDaemon(opt, rig, dir, error))
        return false;
    std::vector<BatchSpec> batches = servableSpecs(specs);
    ServeStats before = rig.daemon->stats();
    std::vector<Request> requests;
    daemonPass(rig, batches, requests, &report.spans, 2'000'000);
    ServeStats after = rig.daemon->stats();
    rig.shutdown();
    checkPass(opt, report, batches, requests);
    foldServe(report, before, after, requests.size());

    std::vector<SteppedPoint> stepped =
        stepAll(opt, points, opt.jobs, report.spans, 1);
    foldStepped(opt, report, points, stepped);
    foldTracing(report, cold, stepped);
    return true;
}

} // namespace

bool
runInProcess(const BenchOptions &opt, RunReport &report, std::string &error)
{
    std::uint64_t seed = poolSeed(seedSlot(opt.seed));
    std::vector<BatchSpec> specs;
    std::vector<ExperimentPoint> points;

    // Set-up: registry population, the point set, and one warm-up
    // point (the set's cheapest) so lazy process state is settled
    // before timing. Repeated; setup_s reports the median.
    const int setups = opt.trace ? 1 : 5;
    for (int rep = 0; rep < setups; ++rep) {
        Clock::time_point start = Clock::now();
        registerAllWorkloads();
        specs = workloadSpecs(opt.workload, seed);
        points = expandSpecs(specs);
        ParallelRunner runner(opt.system, opt.jobs);
        const ExperimentPoint &warm = points[warmupPoint(opt.workload)];
        BatchResult warmup = runner.runPoints({warm});
        report.setupS.push_back(msBetween(start, Clock::now()) / 1e3);
        checkOutcome(opt, report, warm, warmup.points[0]);
    }

    if (opt.trace)
        return tracedRun(opt, report, specs, points, error);

    ParallelRunner runner(opt.system, opt.jobs);
    do {
        BatchResult batch;
        double wallMs = timedPass(runner, points, batch, report.latenciesMs);
        report.passMs.push_back(wallMs);
        report.measuredS += wallMs / 1e3;
        report.pointsDone += points.size();
        ++report.passes;
        for (std::size_t i = 0; i < points.size(); ++i)
            checkOutcome(opt, report, points[i], batch.points[i]);
    } while (report.measuredS < opt.seconds);
    return true;
}

} // namespace perfbench
