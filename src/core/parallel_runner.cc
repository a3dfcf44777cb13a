#include "core/parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/logging.hh"
#include "common/parse_number.hh"
#include "inject/injector.hh"
#include "sim/watchdog.hh"
#include "workloads/registry.hh"

namespace uvmasync
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/*
 * Peak RSS and the heap. A point's device state (per-chunk residency
 * arrays) runs to MiBs at Mega. glibc serves blocks that large with
 * mmap, and freeing one unmaps it at once, but its dynamic mmap
 * threshold then rises to the freed block's size (up to 32 MiB), so
 * later arrays of that size land in a worker's arena. There a later
 * small allocation can pin them, and a point on another worker peaks
 * on top of that retained heap. Two guards, both no-ops off glibc:
 *
 *  - gMmapThresholdPinned fixes the threshold at glibc's initial
 *    128 KiB while the program loads, before any worker allocates
 *    (a fixed threshold is never adjusted), so large arrays stay
 *    mmapped for the whole run;
 *  - releaseFreeHeap(), after every task, hands whatever arena
 *    memory is left free back to the OS.
 */
#if defined(__GLIBC__)
[[maybe_unused]] const bool gMmapThresholdPinned =
    mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1;
#endif

void
releaseFreeHeap()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

/** 0 means "not set"; resolved lazily in globalJobs(). */
std::atomic<unsigned> gGlobalJobs{0};

unsigned
autoJobs()
{
    if (const char *env = std::getenv("UVMASYNC_JOBS")) {
        std::uint64_t v = 0;
        if (parseUnsigned(env, v, std::numeric_limits<unsigned>::max()) &&
            v > 0)
            return static_cast<unsigned>(v);
        warn("ignoring invalid UVMASYNC_JOBS='%s'", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/**
 * Per-worker task queues with stealing. Workers pop from the back of
 * their own queue and steal from the front of the most loaded other
 * queue; a mutex per queue keeps the engine simple and TSan-clean.
 */
class StealingQueues
{
  public:
    explicit StealingQueues(unsigned workers) : queues_(workers) {}

    void
    push(unsigned worker, std::size_t index)
    {
        Queue &q = queues_[worker];
        std::lock_guard<std::mutex> lock(q.mutex);
        q.tasks.push_back(index);
    }

    /** Pop from the worker's own queue; false when empty. */
    bool
    popLocal(unsigned worker, std::size_t &index)
    {
        Queue &q = queues_[worker];
        std::lock_guard<std::mutex> lock(q.mutex);
        if (q.tasks.empty())
            return false;
        index = q.tasks.back();
        q.tasks.pop_back();
        return true;
    }

    /** Steal from the front of another worker's queue. */
    bool
    steal(unsigned thief, std::size_t &index)
    {
        for (std::size_t off = 1; off < queues_.size(); ++off) {
            unsigned victim = static_cast<unsigned>(
                (thief + off) % queues_.size());
            Queue &q = queues_[victim];
            std::lock_guard<std::mutex> lock(q.mutex);
            if (q.tasks.empty())
                continue;
            index = q.tasks.front();
            q.tasks.pop_front();
            return true;
        }
        return false;
    }

  private:
    struct Queue
    {
        std::mutex mutex;
        std::deque<std::size_t> tasks;
    };

    std::vector<Queue> queues_;
};

} // namespace

unsigned
globalJobs()
{
    unsigned jobs = gGlobalJobs.load(std::memory_order_relaxed);
    return jobs > 0 ? jobs : autoJobs();
}

void
setGlobalJobs(unsigned jobs)
{
    gGlobalJobs.store(jobs, std::memory_order_relaxed);
}

const char *
pointStatusName(PointStatus status)
{
    switch (status) {
      case PointStatus::Ok: return "ok";
      case PointStatus::Aborted: return "aborted";
      case PointStatus::Timeout: return "timeout";
      case PointStatus::Failed: return "failed";
      case PointStatus::Quarantined: return "quarantined";
      case PointStatus::Cancelled: return "cancelled";
    }
    panic("unknown point status %d", static_cast<int>(status));
}

bool
BatchResult::allOk() const
{
    for (const PointOutcome &point : points) {
        if (!point.ok)
            return false;
    }
    return true;
}

std::size_t
BatchResult::quarantined() const
{
    std::size_t n = 0;
    for (const PointOutcome &point : points)
        n += point.ok ? 0 : 1;
    return n;
}

ExperimentResult
quarantinedPlaceholder(const ExperimentPoint &point)
{
    ExperimentResult res;
    res.workload = point.workload;
    res.mode = point.mode;
    res.size = point.opts.size;
    return res;
}

std::vector<ExperimentResult>
BatchResult::results() const
{
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!points[i].ok)
            throw std::runtime_error("experiment point " +
                                     std::to_string(i) + " failed: " +
                                     points[i].error);
    }
    std::vector<ExperimentResult> out;
    out.reserve(points.size());
    for (const PointOutcome &point : points)
        out.push_back(point.result);
    return out;
}

ParallelRunner::ParallelRunner(SystemConfig system, unsigned jobs)
    : system_(system), jobs_(jobs > 0 ? jobs : globalJobs())
{
    // Populate the registry on this thread before any worker runs, so
    // workers only ever read it.
    registerAllWorkloads();
}

std::vector<std::vector<TransferMode>>
planLintPricing(const std::vector<ExperimentPoint> &points,
                const std::vector<char> &live)
{
    using JobKey = std::tuple<std::string, SizeClass, std::uint64_t,
                              std::uint32_t>;
    std::map<JobKey, std::size_t> pricer;
    std::vector<std::vector<TransferMode>> plan(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ExperimentPoint &point = points[i];
        if (!live[i] || point.opts.lint == LintMode::Off)
            continue;
        JobKey key{point.workload, point.opts.size,
                   point.opts.geometry.gridBlocks,
                   point.opts.geometry.threadsPerBlock};
        std::vector<TransferMode> &modes =
            plan[pricer.try_emplace(key, i).first->second];
        if (std::find(modes.begin(), modes.end(), point.mode) ==
            modes.end())
            modes.push_back(point.mode);
    }
    return plan;
}

BatchResult
ParallelRunner::runPoints(const std::vector<ExperimentPoint> &points)
{
    return runPoints(points, RunPolicy{});
}

BatchResult
ParallelRunner::runPoints(const std::vector<ExperimentPoint> &points,
                          const RunPolicy &policy)
{
    BatchResult batch;
    batch.points.resize(points.size());
    batch.metrics.points = points.size();
    if (points.empty()) {
        batch.metrics.jobs = 1;
        return batch;
    }

    // Restore journaled outcomes up front (before any worker spawns)
    // so the queues only ever hold live points.
    std::vector<char> live(points.size(), 1);
    if (policy.journal) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (policy.journal->restore(i, batch.points[i])) {
                batch.points[i].restored = true;
                live[i] = 0;
                ++batch.metrics.restored;
            }
        }
    }

    // Consult the cross-run result store for the remaining points,
    // in submission order on the calling thread: the cache's
    // hit/miss sequence (and any LRU bookkeeping it keeps) is a pure
    // function of the batch, never of worker scheduling. A journal
    // restore wins over a cache hit — it is this run's own record.
    if (policy.cache) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (!live[i])
                continue;
            if (policy.cache->lookup(i, batch.points[i])) {
                batch.points[i].cached = true;
                live[i] = 0;
                ++batch.metrics.cacheHits;
            }
        }
    }

    // Price each job once, in a task of its own beside its pricer
    // point (planLintPricing); the pricer point's outcome waits for
    // both tasks.
    const std::vector<std::vector<TransferMode>> pricing =
        planLintPricing(points, live);
    std::vector<PointOutcome> priced(points.size());
    std::vector<std::uint8_t> pendingTasks(points.size(), 1);
    for (std::size_t i = 0; i < points.size(); ++i)
        pendingTasks[i] += pricing[i].empty() ? 0 : 1;

    // Submission-order journal merge: a point's terminal record is
    // appended only once every earlier point has completed, so the
    // journal is byte-deterministic at any job count AND every
    // record on disk is a durable prefix of the batch — a crash
    // loses at most the in-flight suffix.
    std::mutex commitMutex;
    std::size_t frontier = 0;
    std::vector<char> done(points.size(), 0);
    auto completeTask = [&](std::size_t index) {
        std::lock_guard<std::mutex> lock(commitMutex);
        if (--pendingTasks[index] > 0)
            return;
        // A pricer point ends as its pricing did when that ran and
        // failed (a job that cannot be built or priced). A pricing
        // a cancel skipped leaves the point as it ended: only the
        // structural gate, which the point ran, can refuse it, so a
        // finished simulation is kept and journaled. A point
        // cancelled itself stays cancelled.
        PointOutcome &finished = batch.points[index];
        const PointOutcome &price = priced[index];
        if (!pricing[index].empty() && !price.ok &&
            price.status != PointStatus::Cancelled &&
            finished.status != PointStatus::Cancelled) {
            finished.ok = false;
            finished.status = price.status;
            finished.error = price.error;
            finished.attempts = price.attempts;
            finished.attemptTrail = price.attemptTrail;
            finished.result = ExperimentResult{};
        }
        done[index] = 1;
        if (!policy.journal && !policy.cache && !policy.onPointMerged)
            return;
        while (frontier < points.size() && done[frontier]) {
            PointOutcome &out = batch.points[frontier];
            // A cache hit is journaled like a fresh result (it is
            // one, replayed), so warm and cold runs write identical
            // journals; a journal-restored point is not re-committed,
            // and a cancelled point is not committed at all — the
            // journal only ever holds real outcomes, so a cancelled
            // batch's journal is a clean prefix of completed points.
            if (policy.journal && !out.restored &&
                out.status != PointStatus::Cancelled &&
                !policy.journal->commit(frontier, out))
                ++batch.metrics.journalErrors;
            // Populate the store from the same submission-order
            // merge: segment append order is deterministic at any
            // job count. Only successful outcomes are cacheable —
            // aborted/timeout/quarantined points must re-run.
            if (policy.cache && out.ok && !out.cached)
                policy.cache->store(frontier, out);
            // Observers ride the merge too: the journal record (if
            // any) is durable by the time this fires, and indices
            // arrive in strict submission order at any job count.
            if (policy.onPointMerged)
                policy.onPointMerged(frontier, out);
            ++frontier;
        }
    };
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!live[i])
            completeTask(i);
    }

    // Never spin up more workers than there are live points.
    std::size_t liveCount = 0;
    for (char flag : live)
        liveCount += flag ? 1 : 0;
    unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
        jobs_, std::max<std::size_t>(liveCount, 1)));
    batch.metrics.jobs = workers;

    Clock::time_point submit = Clock::now();
    std::atomic<std::size_t> steals{0};

    // The attempt loop of one task (@p body) of @p point, recording
    // its status, error and attempt trail into @p outcome.
    auto runAttempts = [&](const ExperimentPoint &point,
                           PointOutcome &outcome, const auto &body) {
        Clock::time_point start = Clock::now();
        // Retries reuse the point's own seed: a deterministic
        // failure (poisoned config, doomed inject plan, watchdog
        // trip) fails identically every time and ends quarantined;
        // only host-side transients are actually saved.
        std::uint32_t maxAttempts = 1 + policy.retries;
        for (std::uint32_t attempt = 1; attempt <= maxAttempts;
             ++attempt) {
            // Cooperative cancel: checked before every attempt, so a
            // cancelled batch stops issuing new work but never tears
            // an in-flight one. Cancelled points are merged (the
            // frontier must still drain) but not journaled.
            if (policy.cancel &&
                policy.cancel->load(std::memory_order_acquire)) {
                outcome.ok = false;
                outcome.status = PointStatus::Cancelled;
                outcome.error = "batch cancelled";
                outcome.metrics.wallMs = msSince(start);
                return;
            }
            outcome.attempts = attempt;
            try {
                // A configuration that fatals (bad geometry,
                // malformed inject plan, ...), aborts an injected
                // transfer or trips a watchdog ceiling fails only
                // this point; siblings are untouched.
                FatalThrowScope fatalGuard;
                if (!point.jobFile &&
                    !WorkloadRegistry::instance().find(point.workload))
                    throw std::runtime_error("unknown workload '" +
                                             point.workload + "'");
                body();
                outcome.ok = true;
                outcome.status = PointStatus::Ok;
                outcome.error.clear();
                break;
            } catch (const PointTimeout &e) {
                outcome.status = PointStatus::Timeout;
                outcome.error = e.what();
            } catch (const TransferAborted &e) {
                outcome.status = PointStatus::Aborted;
                outcome.error = e.what();
            } catch (const std::exception &e) {
                outcome.status = PointStatus::Failed;
                outcome.error = e.what();
            } catch (...) {
                outcome.status = PointStatus::Failed;
                outcome.error = "unknown error";
            }
            outcome.attemptTrail.push_back(
                PointAttempt{outcome.status, outcome.error});
        }
        if (!outcome.ok)
            outcome.status = PointStatus::Quarantined;
        releaseFreeHeap();
        outcome.metrics.wallMs = msSince(start);
    };

    // One task, on one worker's Experiment: point @p index's
    // simulation, or with @p pricingTask its job's pricing. All
    // simulator state is local to the Experiment/Device, so tasks
    // are independent and an outcome depends only on its point —
    // never on which worker or in which order it ran.
    auto runTask = [&](Experiment &experiment, std::size_t index,
                       bool pricingTask, unsigned worker, bool stolen) {
        const ExperimentPoint &point = points[index];
        if (pricingTask) {
            runAttempts(point, priced[index], [&] {
                experiment.price(point.workload, point.opts,
                                 pricing[index]);
            });
        } else {
            PointOutcome &outcome = batch.points[index];
            outcome.metrics.queueWaitMs = msSince(submit);
            outcome.metrics.worker = worker;
            outcome.metrics.stolen = stolen;
            runAttempts(point, outcome, [&] {
                outcome.result = experiment.simulate(point);
            });
        }
        completeTask(index);
    };

    // The tasks in submission order: each pricing task right before
    // its pricer point. A task is (point index << 1) | (1 for pricing).
    std::vector<std::size_t> tasks;
    tasks.reserve(2 * liveCount);
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!live[i])
            continue;
        if (!pricing[i].empty())
            tasks.push_back(i << 1 | 1);
        tasks.push_back(i << 1);
    }

    if (workers <= 1) {
        Experiment experiment(system_);
        for (std::size_t task : tasks)
            runTask(experiment, task >> 1, task & 1, 0, false);
    } else {
        // Points are dealt round-robin, and a pricing task shares its
        // pricer point's queue, ahead of every point there. The owner
        // pops from the back, so it runs its points first; a worker
        // that runs dry steals from the front, so it prices a job
        // beside the busy workers before it starts another point
        // beside them. (Stealing a point first let a worker that
        // finished early run a third 3DCONV@mega point beside the
        // other two, and their residency states overlapped.)
        StealingQueues queues(workers);
        unsigned queue = 0;
        for (std::size_t task : tasks) {
            if (task & 1)
                queues.push(queue, task); // the next point's queue
            else
                queue = (queue + 1) % workers;
        }
        queue = 0;
        for (std::size_t task : tasks) {
            if (!(task & 1)) {
                queues.push(queue, task);
                queue = (queue + 1) % workers;
            }
        }

        auto workerLoop = [&](unsigned worker) {
            Experiment experiment(system_);
            std::size_t task = 0;
            for (;;) {
                bool stolen = false;
                if (!queues.popLocal(worker, task)) {
                    if (!queues.steal(worker, task))
                        break;
                    stolen = true;
                    steals.fetch_add(1, std::memory_order_relaxed);
                }
                runTask(experiment, task >> 1, task & 1, worker,
                        stolen);
            }
        };

        std::vector<std::thread> threads;
        threads.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            threads.emplace_back(workerLoop, w);
        for (std::thread &t : threads)
            t.join();
    }

    batch.metrics.wallMs = msSince(submit);
    batch.metrics.steals = steals.load(std::memory_order_relaxed);
    for (const PointOutcome &price : priced)
        batch.metrics.pricingMs += price.metrics.wallMs;
    batch.metrics.busyMs = batch.metrics.pricingMs;
    for (const PointOutcome &outcome : batch.points)
        batch.metrics.busyMs += outcome.metrics.wallMs;
    if (batch.metrics.wallMs > 0.0) {
        batch.metrics.pointsPerSec =
            static_cast<double>(points.size()) /
            (batch.metrics.wallMs / 1e3);
    }
    return batch;
}

} // namespace uvmasync
