/**
 * @file
 * The campaign daemon: a long-lived, single-process simulation
 * service over the existing batch machinery.
 *
 * Clients submit experiment batches (serve/batch_spec.hh payloads)
 * and get back an opaque BatchHandle; the daemon admits batches
 * through a per-client fair queue (serve/admission.hh), runs them
 * one at a time on the ParallelRunner (points within a batch still
 * fan out across --jobs workers), and exposes polling, submission-
 * order result streaming, and cancellation — the Mooncake Transfer
 * Engine's submit/poll idiom (submitTransfer → getTransferStatus)
 * applied to simulation campaigns.
 *
 * Durability and caching are composition, not new machinery:
 *
 *  - every admitted batch owns a RunJournal under the state
 *    directory, so a daemon kill at ANY point resumes every
 *    in-flight campaign on restart, and the verified payloads of
 *    the journal's records ARE the client-visible result stream
 *    (byte-identical to the record payloads `uvmasync run --journal`
 *    writes for the same batch);
 *  - one shared ResultStore serves as the cross-client cache — a
 *    batch one tenant already paid for is a pure replay for the
 *    next tenant;
 *  - the retry/quarantine RunPolicy isolates a poisoned point to
 *    its own batch (degraded, not wedged), never to the daemon.
 *
 * State directory layout:
 *
 *   <state>/batches/<handle16>.kv         submission payload, fsync'd
 *   <state>/batches/<handle16>.jsonl      the batch's run journal
 *   <state>/batches/<handle16>.cancelled  cancellation marker
 *
 * Handles are persisted sequence numbers (hexU64-rendered on the
 * wire); recovery lists the payloads in handle order, classifies
 * each batch by its journal (listBatchFiles, scanJournal and
 * classifyBatch, which fsck calls too), and re-admits unfinished
 * work before the first client connects.
 *
 * No wall-clock anywhere: scheduling is queue order, recovery order
 * is handle order, and the result stream is the journal's payloads —
 * determinism_lint.sh enforces the ban for src/serve like it does
 * for src/journal and src/store.
 */

#ifndef UVMASYNC_SERVE_DAEMON_HH
#define UVMASYNC_SERVE_DAEMON_HH

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_runner.hh"
#include "io/io_env.hh"
#include "serve/admission.hh"
#include "serve/batch_spec.hh"
#include "store/result_store.hh"

namespace uvmasync
{

struct JournalScan;

/** Daemon configuration. */
struct ServeOptions
{
    /** Root of the batch payloads + journals (required). */
    std::string stateDir;

    /** Worker threads per batch; 0 = globalJobs(). */
    unsigned jobs = 0;

    /** Shared cross-client ResultStore directory; "" = no store. */
    std::string storeDir;

    /** Store byte budget (0 = unlimited); see StoreOptions. */
    std::uint64_t storeMaxBytes = 0;

    /** Testbed configuration every batch runs against. */
    SystemConfig system = SystemConfig::a100Epyc();

    /**
     * Start with the scheduler gate closed: batches are admitted
     * but none runs until resume() (tests use this to pin
     * pending-state behavior, e.g. cancel-before-run).
     */
    bool paused = false;

    /**
     * File-system seam for every durable-state byte the daemon
     * writes (payloads, journals, markers, the shared store); null
     * means realIoEnv(). Fault-injection tests point this at a
     * FaultyIoEnv to fail any single operation.
     */
    IoEnv *io = nullptr;
};

/** Lifecycle of one batch. */
enum class BatchState
{
    Pending,   //!< admitted, waiting in the fair queue
    Running,   //!< on the ParallelRunner right now
    Done,      //!< every point ok
    Degraded,  //!< finished with quarantined points
    Cancelled, //!< cancelled (before or during execution)
};

/** Stable state slug ("pending", "running", ...). */
const char *batchStateName(BatchState state);

/** True for states no transition can leave. */
bool batchStateTerminal(BatchState state);

/** One getBatchStatus() snapshot. */
struct BatchStatus
{
    BatchState state = BatchState::Pending;
    std::size_t points = 0;   //!< grid size of the batch
    std::size_t merged = 0;   //!< outcomes merged so far
    std::size_t ok = 0;       //!< merged with a result
    std::size_t failed = 0;   //!< merged without one
    std::size_t restored = 0; //!< replayed from the batch journal
    std::size_t cached = 0;   //!< served by the shared store

    /** Per-point slugs: "pending" until merged, then the terminal
     *  pointStatusName ("ok", "quarantined", ...). */
    std::vector<std::string> pointStatus;
};

/** One streamResults() chunk. */
struct StreamChunk
{
    /** Journal record payloads ('\n'-terminated, submission order). */
    std::string lines;

    /** Records contained in @p lines. */
    std::size_t records = 0;

    /** Next record index to request. */
    std::size_t nextRecord = 0;

    /** Batch reached a terminal state; no more records will come. */
    bool terminal = false;

    BatchState state = BatchState::Pending;
};

/** Daemon-wide counters (the Stats reply). */
struct ServeStats
{
    std::uint64_t batchesSubmitted = 0;  //!< this process lifetime
    std::uint64_t batchesRecovered = 0;  //!< found at startup
    std::uint64_t batchesCompleted = 0;  //!< reached done/degraded
    std::uint64_t batchesDegraded = 0;
    std::uint64_t batchesCancelled = 0;
    std::uint64_t pointsMerged = 0;
    std::uint64_t pointsRestored = 0;
    std::uint64_t pointsCached = 0;
    std::uint64_t storeLookups = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t storeStored = 0;

    /**
     * Durable-state writes that failed and degraded (never killed)
     * their batch: journal commits the journal refused, cancel
     * markers that did not persist, store segment appends declined.
     * Each one also produces a warn() with the errno text.
     */
    std::uint64_t ioErrors = 0;
};

/**
 * Validate + create the daemon state directory (root and batches/
 * subdirectory, plus a write probe). fatal() with an actionable
 * message when the path is not writable — called from the ServeDaemon
 * constructor so a misconfigured daemon dies at startup, never on a
 * client's first submit (the preflight discipline of --out/--trace/
 * --journal).
 */
void preflightServeStateDir(const std::string &stateDir,
                            IoEnv &io = realIoEnv());

/** The files one batch owns under <state>/batches/. */
enum BatchFile : std::size_t
{
    BatchPayload, //!< <handle16>.kv: the submission payload, fsync'd
    BatchJournal, //!< <handle16>.jsonl: the batch's run journal
    BatchMarker,  //!< <handle16>.cancelled: the cancel marker
};

/** The path of one batch file: the one place names are built. */
std::string batchFilePath(const std::string &batchesDir,
                          BatchHandle handle, BatchFile file);

/** What listBatchFiles() found in a batches directory. */
struct BatchListing
{
    /** Per handle, which of its files exist (indexed by BatchFile). */
    std::map<BatchHandle, std::array<bool, 3>> batches;
    std::vector<std::string> unexpected; //!< names of no batch file
};

/** List @p batchesDir: the one place batch file names are parsed. */
IoStatus listBatchFiles(IoEnv &io, const std::string &batchesDir,
                        BatchListing &out);

/**
 * Classify a recovered batch from its payload's @p points, the scan
 * of its journal against them (null: none readable) and its cancel
 * marker: cancelled; done (degraded if a point failed) once every
 * point has a good record; else pending, and running it resumes the
 * journal. Daemon recovery and fsck both call this.
 */
BatchState classifyBatch(const std::vector<ExperimentPoint> &points,
                         const JournalScan *journal, bool cancelled);

/**
 * The daemon. Construction preflights the state directory, opens the
 * shared store, recovers every persisted batch, and starts the
 * scheduler thread; destruction (or stop()) drains the in-flight
 * batch and joins. All public methods are thread-safe — the socket
 * server calls them from its poll loop while the scheduler runs.
 */
class ServeDaemon
{
  public:
    explicit ServeDaemon(const ServeOptions &opt);
    ~ServeDaemon();

    ServeDaemon(const ServeDaemon &) = delete;
    ServeDaemon &operator=(const ServeDaemon &) = delete;

    /**
     * Admit one batch for @p client. Returns 0 with @p error set on
     * a rejected submission (malformed KV, unknown workload/size/
     * mode, unwritable payload) — the daemon itself never fails.
     */
    BatchHandle submit(std::uint64_t client, const std::string &payload,
                       std::string &error);

    /** Poll one batch; false + error on an unknown handle. */
    bool status(BatchHandle handle, BatchStatus &out,
                std::string &error) const;

    /**
     * Read the batch's result stream from record @p fromRecord on:
     * the payloads of the records scanJournal() returns right now (a
     * record failing its frame, its parse or its grid check ends
     * them, exactly as at recovery). The journal is fsync'd before a
     * point's merge callback fires, so a line once visible never
     * changes — clients may chunk at any pace, across daemon
     * restarts, and concatenated chunks are byte-identical to the
     * batch CLI's journal payloads.
     */
    bool stream(BatchHandle handle, std::size_t fromRecord,
                StreamChunk &out, std::string &error) const;

    /**
     * Cancel: a pending batch leaves the queue and never runs; a
     * running batch stops issuing new points (in-flight points
     * finish; the partial journal survives as a durable prefix); a
     * terminal batch is untouched. Returns the resulting state.
     */
    bool cancel(BatchHandle handle, BatchState &result,
                std::string &error);

    ServeStats stats() const;

    /** Open the scheduler gate (after ServeOptions::paused). */
    void resume();

    /** Stop accepting scheduler work and join (idempotent). */
    void stop();

    /**
     * Hook invoked (from scheduler/worker threads, possibly under
     * internal locks — keep it async-signal-cheap) whenever a point
     * merges or a batch changes state; the socket server points this
     * at its self-pipe to wake poll().
     */
    void setWakeup(std::function<void()> wakeup);

  private:
    struct Batch
    {
        BatchHandle handle = 0;
        BatchSpec spec;
        std::vector<ExperimentPoint> points;
        BatchState state = BatchState::Pending;
        std::atomic<bool> cancelFlag{false};

        std::size_t merged = 0;
        std::size_t ok = 0;
        std::size_t failed = 0;
        std::size_t restored = 0;
        std::size_t cached = 0;

        /** Terminal status of merged points (size = merged). */
        std::vector<PointStatus> statuses;
    };

    std::string path(BatchHandle handle, BatchFile file) const;

    void recover();
    void schedulerLoop();
    void runBatch(Batch &batch);
    void finishBatch(Batch &batch, BatchState state);
    void notifyWakeup();

    ServeOptions opt_;
    IoEnv &io_; //!< opt_.io or realIoEnv(); all durable I/O
    std::string batchesDir_;

    mutable std::mutex mutex_; //!< batches_, queue_, stats_, state
    std::condition_variable cv_;
    std::map<BatchHandle, std::unique_ptr<Batch>> batches_;
    AdmissionQueue queue_;
    BatchHandle nextHandle_ = 1;
    ServeStats stats_;
    bool paused_ = false;
    bool stopping_ = false;

    /** Store I/O serialization: worker merges vs. stats polls. */
    mutable std::mutex storeMutex_;
    std::unique_ptr<ResultStore> store_;

    std::function<void()> wakeup_;
    mutable std::mutex wakeupMutex_;

    std::thread scheduler_;
};

} // namespace uvmasync

#endif // UVMASYNC_SERVE_DAEMON_HH
