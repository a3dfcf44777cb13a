/**
 * @file
 * Deterministic fault-injecting IoEnv, the persistence-layer twin of
 * the PR 4 simulation injector: every fault decision is derived from
 * (plan seed, operation counter) through the same splitmix64 salt
 * scheme, so a fault run is exactly reproducible and two runs with
 * the same plan fail the same byte of the same operation.
 *
 * The crash-consistency enumerator uses it in two passes: a counting
 * pass with an empty plan (no faults) records how many fault-eligible
 * operations a workload performs, then one run per operation index
 * fails exactly that operation and asserts the recovery invariants.
 *
 * Fault kinds:
 *  - failAtOp: the Nth fault-eligible operation fails with failErrno;
 *    a failing write may first push a salt-derived prefix of its
 *    payload through to the inner env (a realistic short write that
 *    leaves a torn tail on disk).
 *  - enospcAfterBytes: cumulative written bytes are capped; the write
 *    that crosses the cap is truncated at the cap and fails ENOSPC,
 *    as do all later writes (a full disk stays full).
 *  - failSyncs: every sync() fails with EIO after the flush — data
 *    may be in the page cache but durability was never promised.
 *  - powerCut: the env tracks, per file, how many bytes were made
 *    durable by the last successful sync; powerCut() then truncates
 *    every tracked file to its durable prefix plus a salt-derived
 *    portion of the unsynced suffix, emulating a power loss that
 *    drops an arbitrary amount of un-fsync'd data.
 */

#ifndef UVMASYNC_TESTS_FAULTY_ENV_HH
#define UVMASYNC_TESTS_FAULTY_ENV_HH

#include <cerrno>
#include <cstdint>
#include <map>
#include <mutex>

#include "io/io_env.hh"

namespace uvmasync
{

/** What to break, and when. Default-constructed = inert. */
struct IoFaultPlan {
    static constexpr std::uint64_t noByteLimit = ~0ull;

    /** Salt for every derived decision (prefix lengths, cut sizes). */
    std::uint64_t seed = 0;

    /** 1-based index of the fault-eligible op to fail; 0 = never. */
    std::uint64_t failAtOp = 0;

    /** errno injected at failAtOp. */
    int failErrno = EIO;

    /** Cumulative write-byte budget before ENOSPC; noByteLimit = off. */
    std::uint64_t enospcAfterBytes = noByteLimit;

    /** Fail every sync() with EIO (flush happens, durability lies). */
    bool failSyncs = false;

    /** Let a failing write leave a salt-derived partial prefix. */
    bool shortWrites = true;

    /** Track unsynced bytes per file so powerCut() can drop them. */
    bool powerCut = false;
};

/** Observed-operation counters (all monotone, never reset). */
struct IoFaultStats {
    std::uint64_t ops = 0;            ///< fault-eligible operations
    std::uint64_t writes = 0;         ///< write() calls
    std::uint64_t syncs = 0;          ///< sync() calls
    std::uint64_t injectedFailures = 0;
    std::uint64_t bytesWritten = 0;   ///< bytes reaching the inner env
    std::uint64_t shortWriteBytes = 0;///< partial bytes before a fail
    std::uint64_t powerCutDropped = 0;///< bytes dropped by powerCut()
};

/** The salt for op @p op under @p seed (splitmix64 finalizer mix). */
std::uint64_t ioFaultSalt(std::uint64_t seed, std::uint64_t op);

/**
 * Wraps an inner env (usually realIoEnv()) and injects the plan's
 * faults. Thread-safe; the operation counter is a single global
 * sequence across all files, which is what makes the enumerator's
 * counting pass meaningful.
 */
class FaultyIoEnv : public IoEnv
{
  public:
    explicit FaultyIoEnv(IoFaultPlan plan,
                         IoEnv &inner = realIoEnv());
    ~FaultyIoEnv() override;

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

    /**
     * Emulate a power loss: truncate every tracked file to its
     * durable (synced) prefix plus a salt-derived share of whatever
     * was written but never synced. Only meaningful with
     * plan.powerCut; call after the layer under test is destroyed.
     * Returns the number of bytes dropped.
     */
    std::uint64_t powerCut();

    const IoFaultStats &stats() const { return stats_; }

    /** Fault-eligible ops so far (the counting pass reads this). */
    std::uint64_t opCount() const { return stats_.ops; }

  private:
    friend class FaultyIoFile;

    /** Per-file durability tracking for powerCut mode. */
    struct FileTrack {
        std::uint64_t durable = 0; ///< bytes safe after last sync
        std::uint64_t written = 0; ///< bytes pushed to the inner env
    };

    /**
     * Count one fault-eligible op; true (with the op's salt in
     * @p salt) when the plan says this one fails.
     */
    bool nextOpFails(std::uint64_t &salt);

    /** Bookkeeping for bytes that reached the inner env. */
    void noteWritten(const std::string &path, std::uint64_t len,
                     bool partial);

    /** Advance the per-file durable watermark after a good sync. */
    void noteSynced(const std::string &path);

    IoFaultPlan plan_;
    IoEnv &inner_;
    std::mutex mutex_;
    IoFaultStats stats_;
    std::map<std::string, FileTrack> tracks_;
};

} // namespace uvmasync

#endif // UVMASYNC_TESTS_FAULTY_ENV_HH
