/**
 * @file
 * Virtual-file-system seam for every durable-state write the system
 * makes. The journal (src/journal), the result store (src/store),
 * and the campaign daemon (src/serve) route ALL file I/O — open,
 * write, sync, truncate, rename, unlink, read, list — through an
 * IoEnv instead of calling libc directly, so a test can substitute a
 * deterministic fault-injecting environment (FaultyIoEnv) and fail
 * any single operation, run out of space mid-append, or cut power
 * with unsynced bytes in flight.
 *
 * Results are errno-faithful: every operation returns an IoStatus
 * carrying the errno a real syscall produced (or the one a fault
 * plan injected), never a fatal(). Callers own the policy — degrade,
 * quarantine, or surface the error — which is what lets a failed
 * write demote a run instead of killing it.
 *
 * The default RealIoEnv is a zero-overhead passthrough to the same
 * fopen/fwrite/fsync calls the layers used to make directly; the
 * determinism lint bans raw file I/O in the three durable-state
 * directories so this seam cannot silently rot.
 */

#ifndef UVMASYNC_IO_IO_ENV_HH
#define UVMASYNC_IO_IO_ENV_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace uvmasync
{

/** Outcome of one I/O operation; err holds errno when !ok. */
struct IoStatus {
    bool ok = true;
    int err = 0;

    static IoStatus good() { return IoStatus{}; }
    static IoStatus failure(int e) { return IoStatus{false, e}; }

    /** strerror(err), or "ok" when the operation succeeded. */
    std::string text() const;
};

/**
 * An open writable file. write() appends at the current position;
 * sync() makes everything written so far durable. close() is
 * idempotent and reports flush failures; the destructor closes
 * silently and NEVER fatals — a guarantee the crash-consistency
 * enumerator's death tests pin down (a fatal during stack unwinding
 * would std::terminate the process).
 */
class IoFile
{
  public:
    virtual ~IoFile() = default;

    virtual IoStatus write(const void *data, std::size_t len) = 0;

    IoStatus
    write(const std::string &data)
    {
        return write(data.data(), data.size());
    }

    /**
     * Flush userspace buffers to the kernel (no fsync): bytes
     * survive a process kill but not a power cut. The store's
     * per-record contract.
     */
    virtual IoStatus flush() = 0;

    /** Flush userspace buffers and fsync to the device. */
    virtual IoStatus sync() = 0;

    /** Flush and close; safe to call twice. */
    virtual IoStatus close() = 0;
};

/**
 * The environment: file-system primitives with errno-faithful
 * results. Implementations must be thread-safe (the daemon writes
 * batch state from multiple threads).
 */
class IoEnv
{
  public:
    virtual ~IoEnv() = default;

    /** Open for writing, truncating any existing file. */
    virtual std::unique_ptr<IoFile>
    openTrunc(const std::string &path, IoStatus &st) = 0;

    /** Open for appending at the end; creates the file if missing. */
    virtual std::unique_ptr<IoFile>
    openAppend(const std::string &path, IoStatus &st) = 0;

    /** Shrink (or extend) a closed file to exactly @p size bytes. */
    virtual IoStatus truncateFile(const std::string &path,
                                  std::uint64_t size) = 0;

    /** Read a whole file into @p out. */
    virtual IoStatus readFile(const std::string &path,
                              std::string &out) = 0;

    /** True when @p path names an existing file or directory. */
    virtual bool exists(const std::string &path) = 0;

    /** mkdir; an already-existing directory is success. */
    virtual IoStatus makeDir(const std::string &path) = 0;

    /** Atomically rename @p from over @p to. */
    virtual IoStatus renameFile(const std::string &from,
                                const std::string &to) = 0;

    /** Unlink one file. */
    virtual IoStatus removeFile(const std::string &path) = 0;

    /**
     * Entry names in @p path (no "." / ".."), sorted so iteration
     * order is deterministic across filesystems.
     */
    virtual IoStatus listDir(const std::string &path,
                             std::vector<std::string> &names) = 0;

    /** @{
     * Conveniences composed from the primitives above (and therefore
     * automatically fault-injectable).
     */

    /** open + write + sync + close: durable once this returns ok. */
    IoStatus writeFileDurable(const std::string &path,
                              const std::string &data);

    /**
     * Write-to-temp + rename: readers see either the old file or the
     * complete new one, never a torn intermediate.
     */
    IoStatus writeFileAtomic(const std::string &path,
                             const std::string &data);
    /** @} */
};

/** The passthrough environment over the real filesystem. */
class RealIoEnv : public IoEnv
{
  public:
    std::unique_ptr<IoFile> openTrunc(const std::string &path,
                                      IoStatus &st) override;
    std::unique_ptr<IoFile> openAppend(const std::string &path,
                                       IoStatus &st) override;
    IoStatus truncateFile(const std::string &path,
                          std::uint64_t size) override;
    IoStatus readFile(const std::string &path,
                      std::string &out) override;
    bool exists(const std::string &path) override;
    IoStatus makeDir(const std::string &path) override;
    IoStatus renameFile(const std::string &from,
                        const std::string &to) override;
    IoStatus removeFile(const std::string &path) override;
    IoStatus listDir(const std::string &path,
                     std::vector<std::string> &names) override;
};

/** Process-wide shared RealIoEnv (the default everywhere). */
IoEnv &realIoEnv();

} // namespace uvmasync

#endif // UVMASYNC_IO_IO_ENV_HH
