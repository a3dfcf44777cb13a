#include "serve/daemon.hh"

#include <algorithm>
#include <optional>
#include <set>

#include "common/logging.hh"
#include "io/record_log.hh"
#include "journal/journal.hh"
#include "journal/json.hh"
#include "store/fingerprint.hh"
#include "workloads/registry.hh"

namespace uvmasync
{

namespace
{

constexpr const char *batchFileExt[] = {".kv", ".jsonl", ".cancelled"};

/** PointCache wrapper serializing store access against stats polls. */
class LockedPointCache : public PointCache
{
  public:
    LockedPointCache(PointCache &inner, std::mutex &mutex)
        : inner_(inner), mutex_(mutex)
    {
    }

    bool
    lookup(std::size_t index, PointOutcome &out) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return inner_.lookup(index, out);
    }

    void
    store(std::size_t index, const PointOutcome &out) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_.store(index, out);
    }

  private:
    PointCache &inner_;
    std::mutex &mutex_;
};

} // namespace

const char *
batchStateName(BatchState state)
{
    switch (state) {
      case BatchState::Pending: return "pending";
      case BatchState::Running: return "running";
      case BatchState::Done: return "done";
      case BatchState::Degraded: return "degraded";
      case BatchState::Cancelled: return "cancelled";
    }
    panic("unknown batch state %d", static_cast<int>(state));
}

bool
batchStateTerminal(BatchState state)
{
    return state == BatchState::Done ||
           state == BatchState::Degraded ||
           state == BatchState::Cancelled;
}

void
preflightServeStateDir(const std::string &stateDir, IoEnv &io)
{
    if (stateDir.empty())
        fatal("serve: a state directory is required (--state)");
    IoStatus st = io.makeDir(stateDir);
    if (!st.ok)
        fatal("serve: cannot create state directory '%s': %s",
              stateDir.c_str(), st.text().c_str());
    std::string batches = stateDir + "/batches";
    st = io.makeDir(batches);
    if (!st.ok)
        fatal("serve: cannot create '%s': %s", batches.c_str(),
              st.text().c_str());
    // Probe an actual write: an existing but read-only directory
    // must fail here, at startup, never on a client's first submit.
    std::string probe = batches + "/.preflight";
    st = io.writeFileDurable(probe, "probe\n");
    if (!st.ok)
        fatal("serve: state directory '%s' is not writable: %s",
              stateDir.c_str(), st.text().c_str());
    io.removeFile(probe);
}

std::string
batchFilePath(const std::string &batchesDir, BatchHandle handle,
              BatchFile file)
{
    return batchesDir + "/" + hexU64(handle) + batchFileExt[file];
}

IoStatus
listBatchFiles(IoEnv &io, const std::string &batchesDir,
               BatchListing &out)
{
    out = BatchListing{};
    std::vector<std::string> names;
    IoStatus st = io.listDir(batchesDir, names);
    for (const std::string &name : names) {
        std::uint64_t handle = 0;
        const auto *ext = std::end(batchFileExt);
        if (name.size() > 16 && parseHexU64(name.substr(0, 16), handle))
            ext = std::find(std::begin(batchFileExt), ext,
                            name.substr(16));
        if (ext == std::end(batchFileExt))
            out.unexpected.push_back(name);
        else
            out.batches[handle][ext - std::begin(batchFileExt)] = true;
    }
    return st;
}

BatchState
classifyBatch(const std::vector<ExperimentPoint> &points,
              const JournalScan *journal, bool cancelled)
{
    std::set<std::size_t> recorded;
    bool failed = false;
    for (std::size_t i = 0; journal && i < journal->records.size(); ++i) {
        recorded.insert(journal->records[i].point);
        failed = failed || !journal->records[i].outcome.ok;
    }
    if (cancelled)
        return BatchState::Cancelled;
    if (points.empty() || recorded.size() < points.size())
        return BatchState::Pending;
    return failed ? BatchState::Degraded : BatchState::Done;
}

ServeDaemon::ServeDaemon(const ServeOptions &opt)
    : opt_(opt), io_(opt.io ? *opt.io : realIoEnv()),
      batchesDir_(opt.stateDir + "/batches"), paused_(opt.paused)
{
    preflightServeStateDir(opt_.stateDir, io_);
    registerAllWorkloads();
    if (!opt_.storeDir.empty()) {
        StoreOptions storeOpt;
        storeOpt.maxBytes = opt_.storeMaxBytes;
        store_ = ResultStore::open(
            opt_.storeDir, modelSemanticsFingerprint(opt_.system),
            storeOpt, io_);
    }
    recover();
    scheduler_ = std::thread([this] { schedulerLoop(); });
}

ServeDaemon::~ServeDaemon()
{
    stop();
}

std::string
ServeDaemon::path(BatchHandle handle, BatchFile file) const
{
    return batchFilePath(batchesDir_, handle, file);
}

void
ServeDaemon::recover()
{
    // Recovery re-admits unfinished batches in the order they were
    // originally accepted (ascending handle), under one synthetic
    // client — the fairness ship has sailed for a restart, but the
    // order is deterministic and submission-ranked.
    BatchListing listing;
    listBatchFiles(io_, batchesDir_, listing);
    for (const auto &[handle, has] : listing.batches) {
        if (!has[BatchPayload])
            continue;
        auto batch = std::make_unique<Batch>();
        batch->handle = handle;
        ++stats_.batchesRecovered;
        nextHandle_ = std::max(nextHandle_, handle + 1);

        std::string payload;
        std::string error;
        if (!io_.readFile(path(handle, BatchPayload), payload).ok ||
            !parseBatchSpec(payload, batch->spec, error)) {
            // The payload no longer parses (manual edit, version
            // skew). Refuse the batch, not the daemon: park it
            // terminal, and the warning names the reason.
            warn("serve: recovered batch %s is unusable: %s",
                 hexU64(handle).c_str(),
                 error.empty() ? "unreadable payload"
                               : error.c_str());
            batch->state = BatchState::Degraded;
            batches_.emplace(handle, std::move(batch));
            continue;
        }
        batch->points = batchSpecPoints(batch->spec);

        // Progress counters come from the records the journal scan
        // returns, which stream() serves too.
        std::optional<JournalScan> scan;
        std::string contents;
        if (has[BatchJournal] &&
            io_.readFile(path(handle, BatchJournal), contents).ok)
            scan = scanJournal(contents, &batch->points);
        // A journal without a complete line (a crash before its
        // header sync) holds nothing ever served: drop it, so the
        // batch runs on a journal written anew from the payload.
        if (scan && scan->header == JournalHeader::Missing)
            io_.removeFile(path(handle, BatchJournal));
        for (std::size_t i = 0; scan && i < scan->records.size(); ++i) {
            const PointOutcome &outcome = scan->records[i].outcome;
            batch->statuses.push_back(outcome.status);
            outcome.ok ? ++batch->ok : ++batch->failed;
        }
        // Every record read back at recovery was restored from disk,
        // whether or not the batch still needs to run.
        batch->merged = batch->restored = batch->statuses.size();
        batch->state = classifyBatch(batch->points, scan ? &*scan : nullptr,
                                     has[BatchMarker]);
        if (batch->state == BatchState::Pending)
            queue_.admit(0, handle);
        batches_.emplace(handle, std::move(batch));
    }
}

BatchHandle
ServeDaemon::submit(std::uint64_t client, const std::string &payload,
                    std::string &error)
{
    BatchSpec spec;
    if (!parseBatchSpec(payload, spec, error))
        return 0;

    std::lock_guard<std::mutex> lock(mutex_);
    BatchHandle handle = nextHandle_++;
    // The payload hits disk (fsync'd) before the handle is
    // acknowledged: once a client holds a handle, a daemon restart
    // will recover the batch.
    IoStatus persisted =
        io_.writeFileDurable(path(handle, BatchPayload), payload);
    if (!persisted.ok) {
        // Never ack a handle whose payload is not durable — and never
        // leave a torn payload for recovery to trip over (best
        // effort; a survivor parses or parks Degraded, not fatal).
        io_.removeFile(path(handle, BatchPayload));
        ++stats_.ioErrors;
        error = "cannot persist batch payload: " + persisted.text();
        return 0;
    }
    auto batch = std::make_unique<Batch>();
    batch->handle = handle;
    batch->spec = spec;
    batch->points = batchSpecPoints(spec);
    batch->state = BatchState::Pending;
    batches_.emplace(handle, std::move(batch));
    queue_.admit(client, handle);
    ++stats_.batchesSubmitted;
    cv_.notify_all();
    return handle;
}

bool
ServeDaemon::status(BatchHandle handle, BatchStatus &out,
                    std::string &error) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = batches_.find(handle);
    if (it == batches_.end()) {
        error = "unknown batch " + hexU64(handle);
        return false;
    }
    const Batch &batch = *it->second;
    out = BatchStatus{};
    out.state = batch.state;
    out.points = batch.points.size();
    out.merged = batch.merged;
    out.ok = batch.ok;
    out.failed = batch.failed;
    out.restored = batch.restored;
    out.cached = batch.cached;
    out.pointStatus.reserve(out.points);
    for (std::size_t i = 0; i < out.points; ++i) {
        out.pointStatus.push_back(i < batch.statuses.size()
                                      ? pointStatusName(
                                            batch.statuses[i])
                                      : "pending");
    }
    return true;
}

bool
ServeDaemon::stream(BatchHandle handle, std::size_t fromRecord,
                    StreamChunk &out, std::string &error) const
{
    // Snapshot the state BEFORE reading the file: if the state says
    // terminal, every record was already durable when we looked, so
    // "terminal + these lines" can never under-report. The other
    // order could miss a record committed between the two reads.
    BatchState state;
    const std::vector<ExperimentPoint> *points = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = batches_.find(handle);
        if (it == batches_.end()) {
            error = "unknown batch " + hexU64(handle);
            return false;
        }
        state = it->second->state;
        points = &it->second->points; // never changes after admission
    }
    // Serve the records the journal scan returns against the batch's
    // grid. The journal syncs each record before the point's merge
    // callback fires, so a record once served never changes.
    std::string contents;
    io_.readFile(path(handle, BatchJournal), contents);
    JournalScan scan = scanJournal(contents, points);
    out = StreamChunk{};
    out.state = state;
    out.terminal = batchStateTerminal(state);
    for (std::size_t i = fromRecord; i < scan.records.size(); ++i) {
        out.lines += scan.log.records[scan.records[i].line].payload;
        out.lines += '\n';
        ++out.records;
    }
    out.nextRecord = scan.records.size();
    return true;
}

bool
ServeDaemon::cancel(BatchHandle handle, BatchState &result,
                    std::string &error)
{
    bool wake = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = batches_.find(handle);
        if (it == batches_.end()) {
            error = "unknown batch " + hexU64(handle);
            return false;
        }
        Batch &batch = *it->second;
        // A marker that does not persist still cancels THIS process
        // (the in-memory state machine advances); only restart
        // agreement is at risk, which is a degradation to report,
        // never a reason to refuse the cancel.
        auto writeMarker = [&] {
            IoStatus st =
                io_.writeFileDurable(path(handle, BatchMarker), "");
            if (!st.ok) {
                ++stats_.ioErrors;
                warn("serve: batch %s cancel marker not durable "
                     "(%s); a restart may re-run the batch",
                     hexU64(handle).c_str(), st.text().c_str());
            }
        };
        switch (batch.state) {
          case BatchState::Pending:
            // Never ran, never will: out of the queue, marker down
            // so a restart agrees, terminal immediately.
            queue_.remove(handle);
            writeMarker();
            batch.state = BatchState::Cancelled;
            ++stats_.batchesCancelled;
            cv_.notify_all();
            wake = true;
            break;
          case BatchState::Running:
            // Cooperative: the runner stops issuing points, the
            // scheduler finalizes to Cancelled. The marker survives
            // a crash between here and there.
            batch.cancelFlag.store(true, std::memory_order_release);
            writeMarker();
            break;
          case BatchState::Done:
          case BatchState::Degraded:
          case BatchState::Cancelled:
            break; // terminal: cancel is a no-op
        }
        result = batch.state;
    }
    if (wake)
        notifyWakeup();
    return true;
}

ServeStats
ServeDaemon::stats() const
{
    ServeStats out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out = stats_;
    }
    if (store_) {
        std::lock_guard<std::mutex> lock(storeMutex_);
        const StoreStats &s = store_->stats();
        out.storeLookups = s.lookups;
        out.storeHits = s.hits;
        out.storeStored = s.stored;
        out.ioErrors += s.writeErrors;
    }
    return out;
}

void
ServeDaemon::resume()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = false;
    }
    cv_.notify_all();
}

void
ServeDaemon::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return;
        stopping_ = true;
    }
    cv_.notify_all();
    if (scheduler_.joinable())
        scheduler_.join();
}

void
ServeDaemon::setWakeup(std::function<void()> wakeup)
{
    std::lock_guard<std::mutex> lock(wakeupMutex_);
    wakeup_ = std::move(wakeup);
}

void
ServeDaemon::notifyWakeup()
{
    // Invoked under the (leaf) wakeup mutex so setWakeup(nullptr)
    // is a full quiesce point: once it returns, no thread is inside
    // a stale hook. The hook is a nonblocking pipe write — cheap
    // enough to hold the lock across.
    std::lock_guard<std::mutex> lock(wakeupMutex_);
    if (wakeup_)
        wakeup_();
}

void
ServeDaemon::schedulerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        cv_.wait(lock, [&] {
            return stopping_ || (!paused_ && !queue_.empty());
        });
        if (stopping_)
            return;
        BatchHandle handle = 0;
        queue_.next(handle);
        Batch &batch = *batches_.at(handle);
        batch.state = BatchState::Running;
        // Counters restart from zero: on a resumed batch the merge
        // callback re-fires for every restored point, so progress
        // accounting is rebuilt, not accumulated.
        batch.merged = batch.ok = batch.failed = 0;
        batch.restored = batch.cached = 0;
        batch.statuses.clear();
        lock.unlock();
        notifyWakeup();
        runBatch(batch);
        lock.lock();
    }
}

void
ServeDaemon::runBatch(Batch &batch)
{
    // Create or resume the batch journal. A journal that no longer
    // matches the batch (hand-edited state, a different campaign at
    // the same path) fatals inside the journal layer; the throw
    // scope turns that into a degraded batch instead of a dead
    // daemon — one tenant's poisoned state must never take the
    // service down.
    std::unique_ptr<RunJournal> journal;
    std::string file = path(batch.handle, BatchJournal);
    try {
        FatalThrowScope fatalGuard;
        journal = io_.exists(file)
                      ? RunJournal::resume(file, batch.points, io_)
                      : RunJournal::create(file, batch.points, io_);
    } catch (const std::exception &e) {
        warn("serve: batch %s journal unusable: %s",
             hexU64(batch.handle).c_str(), e.what());
        finishBatch(batch, BatchState::Degraded);
        return;
    }

    std::optional<StorePointCache> cache;
    std::optional<LockedPointCache> lockedCache;
    if (store_) {
        cache.emplace(*store_, batch.points);
        lockedCache.emplace(*cache, storeMutex_);
    }

    RunPolicy policy;
    policy.retries = batch.spec.retries;
    policy.journal = journal.get();
    policy.cache = lockedCache ? &*lockedCache : nullptr;
    policy.cancel = &batch.cancelFlag;
    policy.onPointMerged = [&](std::size_t,
                               const PointOutcome &out) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            batch.statuses.push_back(out.status);
            ++batch.merged;
            out.ok ? ++batch.ok : ++batch.failed;
            if (out.restored)
                ++batch.restored;
            if (out.cached)
                ++batch.cached;
            ++stats_.pointsMerged;
            if (out.restored)
                ++stats_.pointsRestored;
            if (out.cached)
                ++stats_.pointsCached;
        }
        notifyWakeup();
    };

    ParallelRunner runner(opt_.system, opt_.jobs);
    BatchResult result = runner.runPoints(batch.points, policy);

    BatchState final = BatchState::Done;
    if (batch.cancelFlag.load(std::memory_order_acquire)) {
        final = BatchState::Cancelled;
    } else if (!result.allOk()) {
        final = BatchState::Degraded;
    }
    // A journal that went inert mid-batch (disk full, EIO) leaves
    // some merged points undurable: results were computed and
    // streamed-from-memory counters are right, but a restart would
    // re-run the tail. That is a degraded batch with the errno on
    // record — never a dead daemon.
    if (result.metrics.journalErrors > 0 || journal->writeFailed()) {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.ioErrors += result.metrics.journalErrors;
        warn("serve: batch %s journal write failed (%s); %zu "
             "record(s) not journaled",
             hexU64(batch.handle).c_str(),
             journal->writeError().c_str(),
             result.metrics.journalErrors);
        if (final == BatchState::Done)
            final = BatchState::Degraded;
    }
    finishBatch(batch, final);
}

void
ServeDaemon::finishBatch(Batch &batch, BatchState state)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        batch.state = state;
        if (state == BatchState::Cancelled) {
            ++stats_.batchesCancelled;
        } else {
            ++stats_.batchesCompleted;
            if (state == BatchState::Degraded)
                ++stats_.batchesDegraded;
        }
        cv_.notify_all();
    }
    notifyWakeup();
}

} // namespace uvmasync
