/**
 * @file
 * Parallel experiment engine with deterministic replay.
 *
 * A work-stealing thread pool over independent experiment points
 * (one workload x mode cell each). Every point runs on its own
 * Device / simulator instance and draws only from point-local RNGs,
 * seeded from its own options (the cell's baseSeed, and per run the
 * noise stream of (baseSeed, workload, run)), so there is no shared
 * mutable state between points and results are merged back in
 * submission order: the output of `--jobs N` is byte-identical to
 * the output of `--jobs 1` for any N.
 *
 * The engine also records lightweight per-point and per-batch
 * metrics (wall time, queue wait, points/sec, steal count) so the
 * speedup of a parallel sweep is observable without perturbing the
 * simulated results.
 */

#ifndef UVMASYNC_CORE_PARALLEL_RUNNER_HH
#define UVMASYNC_CORE_PARALLEL_RUNNER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace uvmasync
{

/**
 * A job the caller built from a job file, run in place of a registry
 * workload. Its journal/store identity is the file's content hash.
 */
struct JobFile
{
    Job job;

    /** jobFileBaseSeed(contents, pinned) of the file. */
    std::uint64_t contentHash = 0;

    /** Host buffers are pinned (RunOptions::pinnedHost). */
    bool pinned = false;
};

/** One point of an experiment grid: a single (workload, mode) cell. */
struct ExperimentPoint
{
    std::string workload;
    TransferMode mode = TransferMode::Standard;
    ExperimentOptions opts;

    /**
     * The job file this point runs, with @ref workload naming its
     * job; null runs the registry workload @ref workload.
     */
    std::shared_ptr<const JobFile> jobFile = nullptr;
};

/** Host-side execution metrics of one point (not simulated time). */
struct PointMetrics
{
    double wallMs = 0.0;      //!< execution wall time of the point
    double queueWaitMs = 0.0; //!< batch submission -> point start
    unsigned worker = 0;      //!< worker index that ran the point
    bool stolen = false;      //!< ran on a worker it was not queued on
};

/** Terminal (or per-attempt) classification of a point. */
enum class PointStatus
{
    Ok,          //!< produced a result
    Aborted,     //!< TransferAborted (injected retry budget)
    Timeout,     //!< PointTimeout (watchdog ceiling)
    Failed,      //!< any other captured error
    Quarantined, //!< still failing after the retry budget
    Cancelled,   //!< batch cancelled before the point ran
};

/** Stable status slug ("ok", "aborted", "timeout", ...). */
const char *pointStatusName(PointStatus status);

/** One failed attempt of a point (the quarantine trail). */
struct PointAttempt
{
    PointStatus status = PointStatus::Failed;
    std::string error;
};

/** Outcome of one point: a result or a captured error. */
struct PointOutcome
{
    bool ok = false;
    PointStatus status = PointStatus::Failed;
    std::string error; //!< what() of the captured exception, if !ok

    /** Attempts consumed (1 on first-try success). */
    std::uint32_t attempts = 0;

    /** Skipped because a resume journal already had the result. */
    bool restored = false;

    /** Served from the cross-run result store (never simulated). */
    bool cached = false;

    /** Every failed attempt, in order (empty on first-try success). */
    std::vector<PointAttempt> attemptTrail;

    ExperimentResult result;
    PointMetrics metrics;
};

class PointJournal;
class PointCache;

/** Retry/quarantine policy of a batch. */
struct RunPolicy
{
    /**
     * Re-runs granted to a failed point, always with the point's own
     * seed — a deterministic failure fails identically, so retries
     * only save points hit by host-side transients (and never change
     * what a successful point computes).
     */
    std::uint32_t retries = 1;

    /** Write-ahead journal for checkpoint/resume; null = none. */
    PointJournal *journal = nullptr;

    /**
     * Cross-run content-addressed result cache; null = none. Looked
     * up before any point simulates and populated from the
     * submission-order merge, so cached and uncached batches produce
     * byte-identical output at any job count. Composes with journal:
     * the journal is the per-run durability layer, the cache the
     * cross-run memoization layer.
     */
    PointCache *cache = nullptr;

    /**
     * Invoked from the submission-order merge — under the same lock
     * and in the same frontier order as journal commits and cache
     * inserts, after both — once per point, including restored and
     * cached points. Because the call rides the merge, any observer
     * (a result streamer, a progress poller) sees a strictly growing
     * prefix of the batch in submission order at any job count, and
     * a journal record is already durable (fsync'd) when the
     * callback for its point fires. Keep it cheap: it runs with the
     * merge lock held.
     */
    std::function<void(std::size_t index, const PointOutcome &out)>
        onPointMerged;

    /**
     * Cooperative cancellation flag, owned by the caller. Checked
     * before every attempt of every task: once set, points that
     * have not started (and retries that have not begun) complete
     * immediately as PointStatus::Cancelled (ok = false) instead of
     * simulating, and pricing tasks that have not started are
     * skipped (a skipped pricing leaves its pricer point as its
     * simulation ended: pricing cannot refuse a point). In-flight
     * attempts run to completion — simulation results are never
     * torn. Cancelled outcomes are merged but never journaled or
     * cached, so a journal only ever holds real outcomes and stays
     * a clean resume/stream source.
     */
    const std::atomic<bool> *cancel = nullptr;
};

/**
 * Write-ahead log of per-point outcomes. The engine calls commit()
 * in submission order (never concurrently), so an implementation can
 * append records to a file and the file stays byte-deterministic at
 * any job count. Implemented by journal/journal.hh's RunJournal; the
 * interface lives here so core does not depend on the journal
 * library.
 */
class PointJournal
{
  public:
    virtual ~PointJournal() = default;

    /**
     * Restore the completed outcome of point @p index from a prior
     * run; returns false when the point must (re)run.
     */
    virtual bool restore(std::size_t index, PointOutcome &out) = 0;

    /**
     * Record the terminal outcome of point @p index. Returns false
     * when the record could not be made durable (disk full, I/O
     * error): the engine counts the miss in
     * BatchMetrics::journalErrors and the batch keeps running — a
     * journal write failure degrades crash-safety, it never kills
     * the sweep.
     */
    virtual bool commit(std::size_t index, PointOutcome &out) = 0;
};

/**
 * Cross-run memoization of per-point results, keyed on content (the
 * point's full configuration), not on position in a batch. The
 * engine calls lookup() for every live point in submission order on
 * the calling thread before any worker spawns — hit/miss sequences
 * (and an implementation's LRU state) are therefore deterministic at
 * any job count — and store() from the submission-order merge (never
 * concurrently), so an append-only backing file stays
 * byte-deterministic too. Implemented by store/result_store.hh's
 * StorePointCache; the interface lives here so core does not depend
 * on the store library.
 */
class PointCache
{
  public:
    virtual ~PointCache() = default;

    /**
     * Serve the outcome of point @p index from the cache; returns
     * false when the point must simulate. A served outcome must be
     * indistinguishable from a fresh first-try success (ok, one
     * attempt, empty trail) so journals and reports stay
     * byte-identical between warm and cold batches.
     */
    virtual bool lookup(std::size_t index, PointOutcome &out) = 0;

    /**
     * Offer a completed outcome for caching. Called for successful
     * outcomes only; implementations may decline (e.g. traced
     * points) and must dedup re-offered entries.
     */
    virtual void store(std::size_t index, const PointOutcome &out) = 0;
};

/** Host-side metrics of one batch. */
struct BatchMetrics
{
    double wallMs = 0.0;       //!< batch submission -> last completion
    double busyMs = 0.0;       //!< sum of per-task wall times
    double pricingMs = 0.0;    //!< pricing tasks' share of busyMs
    double pointsPerSec = 0.0; //!< points / wallMs
    unsigned jobs = 1;         //!< worker count used
    std::size_t points = 0;    //!< points submitted
    std::size_t steals = 0;    //!< cross-worker steals
    std::size_t restored = 0;  //!< points skipped via --resume
    std::size_t cacheHits = 0; //!< points served by the result store
    std::size_t journalErrors = 0; //!< commits the journal refused
};

/** Batch outcome, point outcomes in submission order. */
struct BatchResult
{
    std::vector<PointOutcome> points;
    BatchMetrics metrics;

    /** True when every point produced a result. */
    bool allOk() const;

    /** Points that exhausted their retry budget. */
    std::size_t quarantined() const;

    /** True when any point was quarantined (partial results). */
    bool degraded() const { return quarantined() > 0; }

    /**
     * Results in submission order; throws std::runtime_error naming
     * the first failed point if any point failed.
     */
    std::vector<ExperimentResult> results() const;
};

/**
 * Work-stealing engine over independent experiment points.
 *
 * Each worker thread owns an Experiment (and therefore builds its own
 * Device per point), so points never share simulator state. The
 * queues hold tasks: every live point's simulation, plus one lint
 * pricing task per job (planLintPricing), queued on its pricer
 * point's worker ahead of that worker's points, so an idle worker
 * steals pricing before points. With jobs == 1 the batch runs inline
 * on the calling thread, in submission order, each pricing task
 * right before its pricer point.
 */
class ParallelRunner
{
  public:
    /**
     * @param system testbed configuration, copied into every worker
     * @param jobs   worker threads; 0 picks globalJobs()
     */
    explicit ParallelRunner(SystemConfig system = SystemConfig::a100Epyc(),
                            unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /** Run a batch; per-point errors are captured, never thrown. */
    BatchResult runPoints(const std::vector<ExperimentPoint> &points);

    /**
     * Run a batch under an explicit retry/quarantine policy. Failed
     * points are re-run with the same seed up to policy.retries
     * extra attempts, then quarantined (status + attempt trail in
     * the outcome). With policy.journal set, completed outcomes are
     * committed in submission order and already-journaled points are
     * restored instead of re-run.
     */
    BatchResult runPoints(const std::vector<ExperimentPoint> &points,
                          const RunPolicy &policy);

  private:
    SystemConfig system_;
    unsigned jobs_;
};

/**
 * The lint pricing plan of a batch: for each point, the transfer
 * modes its job's pricing task prices with the cost advisor
 * (Experiment::price). Live points (@p live, one flag per point: not
 * journal-restored, not a store hit) with the same (workload, size,
 * geometry) and lint not Off form a group. The group's first live
 * point in submission order (its pricer) gets every distinct mode of
 * the group, in order of first appearance; every other point gets an
 * empty list. Off and non-live points get an empty list and are in
 * no group.
 *
 * runPoints queues one pricing task per non-empty entry, on its
 * pricer point's worker queue. Every point runs
 * only the structural gate inline (Experiment::simulate), which
 * alone can refuse it. A pricer point's outcome is final, and
 * merges, only once its pricing task has finished too; if the
 * pricing ran and failed, the point ends with the pricing's status,
 * error and attempt trail, exactly as a point whose inline full gate
 * failed. A pricing a cancel skipped leaves the point as it was.
 *
 * A pure function of the batch, computed before any worker starts:
 * which point prices a job never depends on worker scheduling, and
 * nothing is shared between points while the batch runs.
 */
std::vector<std::vector<TransferMode>>
planLintPricing(const std::vector<ExperimentPoint> &points,
                const std::vector<char> &live);

/**
 * Zeroed stand-in result for a quarantined point, carrying only the
 * point's identity (workload/mode/size). Keeps partial batches
 * report-shaped — findMode() still resolves — while the degraded-run
 * banner and robustness table flag the gap.
 */
ExperimentResult quarantinedPlaceholder(const ExperimentPoint &point);

/**
 * Process-wide default parallelism: the last setGlobalJobs() value,
 * else the UVMASYNC_JOBS environment variable, else
 * std::thread::hardware_concurrency().
 */
unsigned globalJobs();

/** Override the default parallelism (CLI --jobs); 0 restores auto. */
void setGlobalJobs(unsigned jobs);

} // namespace uvmasync

#endif // UVMASYNC_CORE_PARALLEL_RUNNER_HH
