#include "faulty_env.hh"

#include <algorithm>
#include <cerrno>

#include "common/rng.hh"
#include "common/stable_hash.hh"

namespace uvmasync
{

std::uint64_t
ioFaultSalt(std::uint64_t seed, std::uint64_t op)
{
    return mix64(seed ^ mix64(op));
}

/**
 * A file handle whose write/sync/close go back through the owning
 * env's fault logic. Holds no lock between calls; every operation
 * takes the env mutex.
 */
class FaultyIoFile final : public IoFile
{
  public:
    FaultyIoFile(FaultyIoEnv &env, std::string path,
                 std::unique_ptr<IoFile> inner)
        : env_(env), path_(std::move(path)), inner_(std::move(inner))
    {
    }

    ~FaultyIoFile() override
    {
        // Silent best-effort close; never counts as a fault point
        // and never fatals (we may be unwinding).
        if (inner_)
            inner_->close();
    }

    IoStatus
    write(const void *data, std::size_t len) override
    {
        std::lock_guard<std::mutex> lock(env_.mutex_);
        if (!inner_)
            return IoStatus::failure(EBADF);
        ++env_.stats_.writes;
        std::uint64_t salt = 0;
        if (env_.nextOpFails(salt)) {
            // A realistic failed write may have pushed a prefix to
            // the device before erroring — leave that torn tail.
            if (env_.plan_.shortWrites && len > 0) {
                std::uint64_t keep = Rng(salt).uniformInt(len);
                if (keep > 0 && inner_->write(data, keep).ok)
                    env_.noteWritten(path_, keep, true);
            }
            return IoStatus::failure(env_.plan_.failErrno);
        }
        // ENOSPC budget: the crossing write is truncated at the cap.
        if (env_.plan_.enospcAfterBytes != IoFaultPlan::noByteLimit) {
            std::uint64_t used = env_.stats_.bytesWritten;
            std::uint64_t cap = env_.plan_.enospcAfterBytes;
            std::uint64_t allowed = cap > used ? cap - used : 0;
            if (len > allowed) {
                ++env_.stats_.injectedFailures;
                if (allowed > 0 &&
                    inner_->write(data, allowed).ok)
                    env_.noteWritten(path_, allowed, true);
                return IoStatus::failure(ENOSPC);
            }
        }
        IoStatus st = inner_->write(data, len);
        if (st.ok)
            env_.noteWritten(path_, len, false);
        return st;
    }

    IoStatus
    flush() override
    {
        std::lock_guard<std::mutex> lock(env_.mutex_);
        if (!inner_)
            return IoStatus::failure(EBADF);
        std::uint64_t salt = 0;
        if (env_.nextOpFails(salt))
            return IoStatus::failure(env_.plan_.failErrno);
        // Flushed-but-unsynced bytes stay below the durable
        // watermark: a power cut may still drop them.
        return inner_->flush();
    }

    IoStatus
    sync() override
    {
        std::lock_guard<std::mutex> lock(env_.mutex_);
        if (!inner_)
            return IoStatus::failure(EBADF);
        ++env_.stats_.syncs;
        std::uint64_t salt = 0;
        if (env_.nextOpFails(salt))
            return IoStatus::failure(env_.plan_.failErrno);
        if (env_.plan_.failSyncs) {
            // The device takes the flush but reports failure — the
            // durable watermark must NOT advance.
            ++env_.stats_.injectedFailures;
            inner_->sync();
            return IoStatus::failure(EIO);
        }
        IoStatus st = inner_->sync();
        if (st.ok)
            env_.noteSynced(path_);
        return st;
    }

    IoStatus
    close() override
    {
        std::lock_guard<std::mutex> lock(env_.mutex_);
        if (!inner_)
            return IoStatus::good();
        std::unique_ptr<IoFile> inner = std::move(inner_);
        std::uint64_t salt = 0;
        if (env_.nextOpFails(salt)) {
            inner->close(); // don't leak the descriptor
            return IoStatus::failure(env_.plan_.failErrno);
        }
        return inner->close();
    }

  private:
    FaultyIoEnv &env_;
    std::string path_;
    std::unique_ptr<IoFile> inner_;
};

FaultyIoEnv::FaultyIoEnv(IoFaultPlan plan, IoEnv &inner)
    : plan_(plan), inner_(inner)
{
}

FaultyIoEnv::~FaultyIoEnv() = default;

bool
FaultyIoEnv::nextOpFails(std::uint64_t &salt)
{
    ++stats_.ops;
    salt = ioFaultSalt(plan_.seed, stats_.ops);
    if (plan_.failAtOp != 0 && stats_.ops == plan_.failAtOp) {
        ++stats_.injectedFailures;
        return true;
    }
    return false;
}

void
FaultyIoEnv::noteWritten(const std::string &path, std::uint64_t len,
                         bool partial)
{
    stats_.bytesWritten += len;
    if (partial)
        stats_.shortWriteBytes += len;
    if (plan_.powerCut)
        tracks_[path].written += len;
}

void
FaultyIoEnv::noteSynced(const std::string &path)
{
    if (!plan_.powerCut)
        return;
    FileTrack &track = tracks_[path];
    track.durable = track.written;
}

std::unique_ptr<IoFile>
FaultyIoEnv::openTrunc(const std::string &path, IoStatus &st)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t salt = 0;
    if (nextOpFails(salt)) {
        st = IoStatus::failure(plan_.failErrno);
        return nullptr;
    }
    std::unique_ptr<IoFile> inner = inner_.openTrunc(path, st);
    if (!inner)
        return nullptr;
    if (plan_.powerCut)
        tracks_[path] = FileTrack{}; // truncated: nothing durable
    return std::make_unique<FaultyIoFile>(*this, path,
                                          std::move(inner));
}

std::unique_ptr<IoFile>
FaultyIoEnv::openAppend(const std::string &path, IoStatus &st)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t salt = 0;
    if (nextOpFails(salt)) {
        st = IoStatus::failure(plan_.failErrno);
        return nullptr;
    }
    if (plan_.powerCut && tracks_.find(path) == tracks_.end()) {
        // First sight of a pre-existing file: its current bytes were
        // durable before this env came to life.
        std::string contents;
        std::uint64_t size =
            inner_.readFile(path, contents).ok ? contents.size() : 0;
        tracks_[path] = FileTrack{size, size};
    }
    std::unique_ptr<IoFile> inner = inner_.openAppend(path, st);
    if (!inner)
        return nullptr;
    return std::make_unique<FaultyIoFile>(*this, path,
                                          std::move(inner));
}

IoStatus
FaultyIoEnv::truncateFile(const std::string &path, std::uint64_t size)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t salt = 0;
    if (nextOpFails(salt))
        return IoStatus::failure(plan_.failErrno);
    IoStatus st = inner_.truncateFile(path, size);
    if (st.ok && plan_.powerCut) {
        FileTrack &track = tracks_[path];
        track.written = size;
        track.durable = std::min(track.durable, size);
    }
    return st;
}

IoStatus
FaultyIoEnv::readFile(const std::string &path, std::string &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t salt = 0;
    if (nextOpFails(salt))
        return IoStatus::failure(plan_.failErrno);
    return inner_.readFile(path, out);
}

bool
FaultyIoEnv::exists(const std::string &path)
{
    // Boolean probe with no error channel: never a fault point.
    return inner_.exists(path);
}

IoStatus
FaultyIoEnv::makeDir(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t salt = 0;
    if (nextOpFails(salt))
        return IoStatus::failure(plan_.failErrno);
    return inner_.makeDir(path);
}

IoStatus
FaultyIoEnv::renameFile(const std::string &from, const std::string &to)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t salt = 0;
    if (nextOpFails(salt))
        return IoStatus::failure(plan_.failErrno);
    IoStatus st = inner_.renameFile(from, to);
    if (st.ok && plan_.powerCut) {
        auto it = tracks_.find(from);
        if (it != tracks_.end()) {
            tracks_[to] = it->second;
            tracks_.erase(it);
        }
    }
    return st;
}

IoStatus
FaultyIoEnv::removeFile(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t salt = 0;
    if (nextOpFails(salt))
        return IoStatus::failure(plan_.failErrno);
    IoStatus st = inner_.removeFile(path);
    if (st.ok && plan_.powerCut)
        tracks_.erase(path);
    return st;
}

IoStatus
FaultyIoEnv::listDir(const std::string &path,
                     std::vector<std::string> &names)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t salt = 0;
    if (nextOpFails(salt))
        return IoStatus::failure(plan_.failErrno);
    return inner_.listDir(path, names);
}

std::uint64_t
FaultyIoEnv::powerCut()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t dropped = 0;
    std::uint64_t index = 0;
    for (auto &entry : tracks_) {
        FileTrack &track = entry.second;
        if (track.written <= track.durable)
            continue;
        std::uint64_t unsynced = track.written - track.durable;
        std::uint64_t salt =
            ioFaultSalt(plan_.seed ^ 0x9c7u, ++index);
        std::uint64_t keepExtra = Rng(salt).uniformInt(unsynced + 1);
        std::uint64_t keep = track.durable + keepExtra;
        if (inner_.truncateFile(entry.first, keep).ok) {
            dropped += track.written - keep;
            track.written = keep;
            track.durable = std::min(track.durable, keep);
        }
    }
    stats_.powerCutDropped += dropped;
    return dropped;
}

} // namespace uvmasync
