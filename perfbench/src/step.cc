#include "step.hh"

#include <functional>
#include <set>

#include "analysis/lint.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "gpu/cache_model.hh"
#include "inject/injector.hh"
#include "runtime/device.hh"
#include "runtime/noise_model.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace uvmasync;

namespace
{

/** Categories computeTraceMetrics needs for the simulated xfer.* counts. */
constexpr std::uint32_t xferCategories =
    traceCategoryBit(TraceCategory::Pcie) |
    traceCategoryBit(TraceCategory::Fault) |
    traceCategoryBit(TraceCategory::Migration) |
    traceCategoryBit(TraceCategory::Prefetch);

/** Times one step and records it as a child span of the point. */
class Stepper
{
  public:
    Stepper(SpanLog *spans, std::uint64_t request, std::uint64_t parent)
        : spans_(spans), request_(request), parent_(parent)
    {
    }

    template <typename F>
    double
    step(const char *name, F &&fn, std::uint64_t *id = nullptr)
    {
        Clock::time_point start = Clock::now();
        fn();
        Clock::time_point end = Clock::now();
        if (spans_) {
            std::uint64_t sid =
                spans_->add(request_, parent_, name, start, end);
            if (id)
                *id = sid;
        }
        return msBetween(start, end);
    }

  private:
    SpanLog *spans_;
    std::uint64_t request_;
    std::uint64_t parent_;
};

} // namespace

double
statValue(const StatMap &stats, const std::string &key)
{
    auto it = stats.find(key);
    return it == stats.end() ? 0.0 : it->second;
}

SteppedPoint
stepPoint(const SystemConfig &system, const ExperimentPoint &point,
          SpanLog *spans, std::uint64_t request)
{
    SteppedPoint out;
    const ExperimentOptions &opts = point.opts;
    std::uint64_t pointId = spans ? spans->reserve() : 0;
    Stepper stepper(spans, request, pointId);
    Clock::time_point pointStart = Clock::now();

    // The same steps Experiment::run takes, in the same order; a
    // fatal() in any of them fails only this point.
    Job &job = out.job;
    try {
        FatalThrowScope fatalGuard;
        stepper.step("workloads.make_job", [&] {
            job = WorkloadRegistry::instance()
                      .get(point.workload)
                      .makeJob(opts.size, opts.geometry);
        });
        TransferMode mode = point.mode;
        stepper.step("analysis.lint", [&] {
            enforceLint(system, job,
                        point.workload + " @ " +
                            std::string(sizeClassName(opts.size)),
                        opts.lint, nullptr, nullptr, &mode);
        });

        Device device(system);
        Tracer tracer;
        tracer.setCategoryFilter(xferCategories);
        std::uint64_t injectSeed =
            opts.injectSeed ? opts.injectSeed : opts.inject.seed;
        Injector injector(opts.inject,
                          injectSalt(injectSeed, opts.baseSeed));
        RunOptions runOpts;
        runOpts.sharedCarveout = opts.sharedCarveout;
        runOpts.seed = opts.baseSeed;
        runOpts.tracer = &tracer;
        runOpts.injector = &injector;
        RunResult det;
        out.deviceRunMs = stepper.step(
            "runtime.device_run",
            [&] { det = device.run(job, mode, runOpts); },
            &out.deviceRunSpan);

        ExperimentResult &res = out.result;
        res.workload = point.workload;
        res.mode = mode;
        res.size = opts.size;
        res.clean = det.breakdown;
        res.counters = det.counters;
        res.injectCounters = injector.counters();
        stepper.step("runtime.noise", [&] {
            NoiseModel noise(system.noise, device.hostMemory());
            Bytes footprint = job.footprint();
            res.runs.reserve(opts.runs);
            for (std::uint32_t i = 0; i < opts.runs; ++i) {
                std::uint64_t seed = opts.baseSeed;
                seed = seed * 1099511628211ull +
                       std::hash<std::string>{}(point.workload);
                seed = seed * 1099511628211ull + i;
                Rng rng(seed);
                res.runs.push_back(
                    noise.perturb(det.breakdown, footprint, rng));
            }
        });
        out.stats = device.stats();
        out.metrics = computeTraceMetrics(tracer);
        out.ok = true;
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    Clock::time_point pointEnd = Clock::now();
    out.pointMs = msBetween(pointStart, pointEnd);
    if (spans) {
        spans->addReserved(pointId, request, 0, "point", pointStart,
                           pointEnd);
    }
    return out;
}

void
replayL1(const SystemConfig &system, const ExperimentPoint &point,
         SteppedPoint &stepped, SpanLog *spans, std::uint64_t request)
{
    if (!stepped.ok)
        return;
    Stepper replay(spans, request, stepped.deviceRunSpan);
    const GpuConfig &gpu = system.gpu;
    const ExperimentOptions &opts = point.opts;
    Bytes carveout = opts.sharedCarveout ? opts.sharedCarveout
                                         : gpu.defaultSharedCarveout;
    std::vector<Bytes> bufferBytes = stepped.job.bufferSizes();
    std::set<std::string> seen;
    for (const KernelDescriptor &kd : stepped.job.kernels) {
        if (!seen.insert(kd.name).second)
            continue;
        stepped.l1ReplayMs += replay.step("gpu.l1_replay", [&] {
            CacheModelResult r = simulateL1(gpu, kd, bufferBytes,
                                            point.mode, carveout,
                                            opts.baseSeed);
            (void)r;
        });
        ++stepped.l1Replays;
    }
}

} // namespace perfbench
