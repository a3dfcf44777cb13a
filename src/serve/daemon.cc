#include "serve/daemon.hh"

#include <algorithm>
#include <optional>

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

/**
 * The verified record payloads of a batch journal, header excluded:
 * the intact prefix of its record log. Recovery and stream() both
 * read exactly this, so they agree by construction. A record that
 * fails its checksum ends the prefix and a torn tail is never
 * returned, so a record once served never changes or disappears: the
 * journal syncs each record before the point's merge callback fires.
 */
std::vector<std::string>
journalRecordPayloads(IoEnv &io, const std::string &path)
{
    std::vector<std::string> payloads;
    std::string contents;
    if (!io.readFile(path, contents).ok)
        return payloads;
    RecordScan scan = scanRecordLog(contents);
    for (std::size_t i = 1; i < scan.intact; ++i)
        payloads.push_back(std::move(scan.records[i].payload));
    return payloads;
}

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
ServeDaemon::payloadPath(BatchHandle handle) const
{
    return batchesDir_ + "/" + hexU64(handle) + ".kv";
}

std::string
ServeDaemon::journalPath(BatchHandle handle) const
{
    return batchesDir_ + "/" + hexU64(handle) + ".jsonl";
}

std::string
ServeDaemon::markerPath(BatchHandle handle) const
{
    return batchesDir_ + "/" + hexU64(handle) + ".cancelled";
}

void
ServeDaemon::recover()
{
    // Collect persisted handles (the .kv payloads) in ascending
    // order: recovery re-admits unfinished batches in the order they
    // were originally accepted, under one synthetic client — the
    // fairness ship has sailed for a restart, but the order is
    // deterministic and submission-ranked.
    std::vector<BatchHandle> found;
    std::vector<std::string> names;
    if (io_.listDir(batchesDir_, names).ok) {
        for (const std::string &name : names) {
            if (name.size() != 19 ||
                name.compare(16, 3, ".kv") != 0)
                continue;
            std::uint64_t handle = 0;
            if (!parseHexU64(name.substr(0, 16), handle))
                continue;
            found.push_back(handle);
        }
    }
    std::sort(found.begin(), found.end());

    for (BatchHandle handle : found) {
        auto batch = std::make_unique<Batch>();
        batch->handle = handle;
        ++stats_.batchesRecovered;
        nextHandle_ = std::max(nextHandle_, handle + 1);

        std::string payload;
        std::string error;
        if (!io_.readFile(payloadPath(handle), payload).ok ||
            !parseBatchSpec(payload, batch->spec, error)) {
            // The payload no longer parses (manual edit, version
            // skew). Refuse the batch, not the daemon: park it
            // terminal with the reason on record.
            warn("serve: recovered batch %s is unusable: %s",
                 hexU64(handle).c_str(),
                 error.empty() ? "unreadable payload"
                               : error.c_str());
            batch->recoveryError =
                error.empty() ? "unreadable payload" : error;
            batch->state = BatchState::Degraded;
            batches_.emplace(handle, std::move(batch));
            continue;
        }
        batch->points = batchSpecPoints(batch->spec);

        // Rebuild progress counters from the journal's intact
        // records; the journal is also what stream() serves, so
        // status and stream agree by construction.
        for (const std::string &line :
             journalRecordPayloads(io_, journalPath(handle))) {
            std::size_t index = 0;
            std::uint64_t configHash = 0;
            PointOutcome outcome;
            std::string recordError;
            if (!parseJournalRecord(line, index, configHash, outcome,
                                    recordError))
                break;
            batch->statuses.push_back(outcome.status);
            ++batch->merged;
            // Every record read back at recovery was restored from
            // disk, whether or not the batch still needs to run.
            ++batch->restored;
            outcome.ok ? ++batch->ok : ++batch->failed;
        }

        if (io_.exists(markerPath(handle))) {
            batch->state = BatchState::Cancelled;
        } else if (!batch->points.empty() &&
                   batch->merged >= batch->points.size()) {
            batch->state = batch->failed > 0 ? BatchState::Degraded
                                             : BatchState::Done;
        } else {
            batch->state = BatchState::Pending;
            queue_.admit(0, handle);
        }
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
        io_.writeFileDurable(payloadPath(handle), payload);
    if (!persisted.ok) {
        // Never ack a handle whose payload is not durable — and never
        // leave a torn payload for recovery to trip over (best
        // effort; a survivor parses or parks Degraded, not fatal).
        io_.removeFile(payloadPath(handle));
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
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = batches_.find(handle);
        if (it == batches_.end()) {
            error = "unknown batch " + hexU64(handle);
            return false;
        }
        state = it->second->state;
    }
    std::vector<std::string> records =
        journalRecordPayloads(io_, journalPath(handle));
    out = StreamChunk{};
    out.state = state;
    out.terminal = batchStateTerminal(state);
    if (fromRecord > records.size())
        fromRecord = records.size();
    for (std::size_t i = fromRecord; i < records.size(); ++i) {
        out.lines += records[i];
        out.lines += '\n';
        ++out.records;
    }
    out.nextRecord = records.size();
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
                io_.writeFileDurable(markerPath(handle), "");
            if (!st.ok) {
                ++stats_.ioErrors;
                if (batch.ioError.empty())
                    batch.ioError =
                        "cancel marker not durable: " + st.text();
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

std::vector<BatchHandle>
ServeDaemon::handles() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<BatchHandle> out;
    out.reserve(batches_.size());
    for (const auto &entry : batches_)
        out.push_back(entry.first);
    return out;
}

bool
ServeDaemon::waitTerminal(BatchHandle handle, BatchState &result)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = batches_.find(handle);
    if (it == batches_.end())
        return false;
    Batch *batch = it->second.get();
    cv_.wait(lock, [&] {
        return stopping_ || batchStateTerminal(batch->state);
    });
    result = batch->state;
    return true;
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
    std::string path = journalPath(batch.handle);
    try {
        FatalThrowScope fatalGuard;
        journal = io_.exists(path)
                      ? RunJournal::resume(path, batch.points, io_)
                      : RunJournal::create(path, batch.points, io_);
    } catch (const std::exception &e) {
        warn("serve: batch %s journal unusable: %s",
             hexU64(batch.handle).c_str(), e.what());
        {
            std::lock_guard<std::mutex> lock(mutex_);
            batch.recoveryError = e.what();
        }
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
        if (batch.ioError.empty())
            batch.ioError = "journal write failed: " +
                            journal->writeError() + " (" +
                            std::to_string(
                                result.metrics.journalErrors) +
                            " record(s) not journaled)";
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
