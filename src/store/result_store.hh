/**
 * @file
 * Persistent content-addressed result store: cross-run memoization of
 * per-point experiment results.
 *
 * The store maps (modelSemanticsFingerprint, pointConfigHash) to one
 * hexfloat ExperimentResult record. The journal (journal/journal.hh)
 * is the per-run durability layer — positional, campaign-validated,
 * fsync'd per record; the store is the cross-run layer — positionless
 * content addressing, so overlapping campaigns, repeated CI runs and
 * golden regeneration pay only for never-seen points.
 *
 * On-disk layout under the store directory:
 *
 *   meta.json         one strict-JSON line: magic, format version,
 *                     the logical LRU clock, the fingerprints ever
 *                     written, per-shard last-use stamps and
 *                     lifetime/last-run counters; rewritten
 *                     atomically, never appended
 *   shards/sXX        256 append-only segment files (XX = low byte of
 *                     the config hash in hex), each a record log
 *                     (io/record_log.hh): a framed header line plus
 *                     one framed record per entry, the result in the
 *                     journal's strict JSON/hexfloat layout
 *
 * Every line carries the record log's checksum over its exact
 * payload bytes. A record that fails it (or does not parse) is
 * counted in corrupt_records and treated as a miss — never served.
 * A torn trailing line (a crash mid-append) is dropped, and
 * truncated away when the store is writable. Unlike the journal
 * there is no per-record fsync: the store is a cache, not a
 * crash-safety contract, and the worst a lost tail costs is a
 * re-simulation. Format version 2 introduced the frame; a version-1
 * store is refused at open with the format-version message.
 *
 * Eviction is LRU by segment under a byte budget. The LRU clock is a
 * *logical* counter (persisted in meta.json), never wall-clock time:
 * the whole store — segment bytes included — stays a pure function of
 * the access sequence, which determinism_lint.sh enforces for
 * src/store the same way it does for src/journal.
 */

#ifndef UVMASYNC_STORE_RESULT_STORE_HH
#define UVMASYNC_STORE_RESULT_STORE_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hh"
#include "core/parallel_runner.hh"
#include "io/io_env.hh"
#include "io/record_log.hh"

namespace uvmasync
{

/** How to open a ResultStore. */
struct StoreOptions
{
    /** Serve hits but never write (no inserts, eviction, or meta). */
    bool readonly = false;

    /**
     * Byte budget over all segment files; exceeding it evicts whole
     * least-recently-used segments. 0 = unlimited.
     */
    std::uint64_t maxBytes = 0;
};

/** Counters of one open store session (plus lifetime totals). */
struct StoreStats
{
    std::uint64_t lookups = 0; //!< lookup() calls this session
    std::uint64_t hits = 0;    //!< served from the store
    std::uint64_t stored = 0;  //!< new records appended

    /** Records rejected by checksum/parse at load ("never served"). */
    std::uint64_t corruptRecords = 0;

    /** Misses whose key exists under a *different* fingerprint. */
    std::uint64_t staleMisses = 0;

    /** Torn trailing lines dropped at load. */
    std::uint64_t tornTails = 0;

    /**
     * Hard segment-append failures (disk full, EIO). Each one
     * disables its shard for the rest of the session — the tail is
     * truncated back to the last intact record instead of corrupted,
     * and later offers to that shard are declined.
     */
    std::uint64_t writeErrors = 0;

    std::uint64_t evictedSegments = 0;
    std::uint64_t evictedBytes = 0;

    /** @{ Lifetime totals from meta.json (include this session). */
    std::uint64_t lifetimeLookups = 0;
    std::uint64_t lifetimeHits = 0;
    std::uint64_t lifetimeStored = 0;
    /** @} */
};

/**
 * One open store directory, bound to a model-semantics fingerprint.
 * All segments are loaded eagerly at open (the hot path is then a
 * pure map lookup), and meta.json is rewritten atomically on close.
 */
class ResultStore
{
  public:
    static constexpr int formatVersion = 2;
    static constexpr std::size_t shardCount = 256;

    /**
     * Open (creating if writable and absent) the store at @p dir for
     * @p fingerprint. fatal() with an actionable message when the
     * directory cannot be created/written, when meta.json is not a
     * store or has a newer format version, or when a readonly open
     * finds no entries for @p fingerprint (a stale store cannot
     * serve the current model semantics and, readonly, can never
     * catch up).
     */
    static std::unique_ptr<ResultStore>
    open(const std::string &dir, std::uint64_t fingerprint,
         const StoreOptions &opt = {}, IoEnv &env = realIoEnv());

    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Serve the result stored under (fingerprint, @p key); counts a
     * hit or a miss (stale when the key exists under another
     * fingerprint) and touches the segment's LRU stamp on hit.
     */
    bool lookup(std::uint64_t key, ExperimentResult &out);

    /**
     * Append one record (no-op when readonly or already present),
     * then enforce the byte budget by evicting LRU segments.
     */
    void insert(std::uint64_t key, const ExperimentResult &result);

    /** Count a served-then-rejected record (see StorePointCache). */
    void noteCorrupt() { ++stats_.corruptRecords; }

    const StoreStats &stats() const { return stats_; }
    const std::string &dir() const { return dir_; }

  private:
    ResultStore() = default;

    std::size_t shardOf(std::uint64_t key) const;
    void loadShard(std::size_t shard, const std::string &path);
    void touch(std::size_t shard);
    void noteWriteError(std::size_t shard, const IoStatus &st);
    void persistMeta();

    struct Shard
    {
        /** (configHash, fingerprint) -> stored result. */
        std::map<std::pair<std::uint64_t, std::uint64_t>,
                 ExperimentResult>
            entries;
        std::uint64_t bytes = 0;
        /** Opened lazily on the first insert; once failed, the shard
         *  declines further offers. */
        std::optional<RecordAppender> log;
    };

    std::string dir_;
    IoEnv *env_ = nullptr;
    std::uint64_t fingerprint_ = 0;
    StoreOptions opt_;
    StoreStats stats_;

    std::array<Shard, shardCount> shards_;
    std::vector<std::uint64_t> knownFingerprints_; //!< sorted
    std::uint64_t clock_ = 0; //!< logical LRU clock (never wall time)
    std::array<std::uint64_t, shardCount> lastUse_{};
    std::uint64_t lastRunLookups_ = 0;
    std::uint64_t lastRunHits_ = 0;
    bool loaded_ = false; //!< open() completed; destructor persists
};

/**
 * RunPolicy::cache adapter binding a ResultStore to a point grid:
 * keys are pointConfigHash(points[i]). Traced points always miss and
 * are never offered (traces are not serialized; a traced rerun
 * re-simulates deterministically instead). A hit whose stored
 * identity does not match the point (a config-hash collision or
 * undetected corruption) is rejected, counted, and re-simulated.
 */
class StorePointCache : public PointCache
{
  public:
    StorePointCache(ResultStore &store,
                    const std::vector<ExperimentPoint> &points);

    bool lookup(std::size_t index, PointOutcome &out) override;
    void store(std::size_t index, const PointOutcome &out) override;

  private:
    ResultStore &store_;
    std::vector<ExperimentPoint> points_;
    std::vector<std::uint64_t> keys_;
};

/** @{ Record payloads (what the record log frames). */
std::string storeSegmentHeaderLine(std::size_t shard);
std::string storeRecordLine(std::uint64_t fingerprint,
                            std::uint64_t key,
                            const ExperimentResult &result);
bool parseStoreRecord(const std::string &line,
                      std::uint64_t &fingerprint, std::uint64_t &key,
                      ExperimentResult &result, std::string &error);
/** @} */

/** One segment file, scanned, verified and parsed. */
struct StoreSegment
{
    struct Entry
    {
        std::size_t line = 0; //!< index into log.records
        std::uint64_t fingerprint = 0;
        std::uint64_t key = 0;
        ExperimentResult result;
    };

    RecordScan log;
    bool headerOk = false; //!< line 1 is this shard's header

    /** Records that verified and parsed, in file order. */
    std::vector<Entry> entries;

    /** Lines that failed (every line, under a bad header). */
    std::size_t corrupt = 0;

    /** "line N: why" for the first bad record after the header. */
    std::string firstError;
};

/** Existing segment files of @p dir as (shard, path), shard order. */
std::vector<std::pair<std::size_t, std::string>>
storeSegmentFiles(const std::string &dir, IoEnv &env = realIoEnv());

/**
 * Verify one segment file's bytes against @p shard. The one reader
 * behind store load, `store stats`/`verify`, gc, invalidate and fsck.
 */
StoreSegment scanStoreSegment(const std::string &contents,
                              std::size_t shard);

/** Offline inspection of a store directory (`store stats`/`verify`). */
struct StoreSurvey
{
    bool metaOk = false;
    std::string metaError;
    std::uint64_t clock = 0;
    std::vector<std::uint64_t> fingerprints;
    std::uint64_t lifetimeLookups = 0;
    std::uint64_t lifetimeHits = 0;
    std::uint64_t lifetimeStored = 0;
    std::uint64_t lastRunLookups = 0;
    std::uint64_t lastRunHits = 0;

    std::size_t segments = 0; //!< shard files present
    std::size_t records = 0;  //!< intact records
    std::uint64_t bytes = 0;  //!< total segment bytes
    std::size_t corruptRecords = 0;
    std::size_t tornTails = 0;
    std::size_t badHeaders = 0;

    /** True when every byte on disk is accounted for and intact. */
    bool
    clean() const
    {
        return metaOk && corruptRecords == 0 && tornTails == 0 &&
               badHeaders == 0;
    }
};

/**
 * Walk a store directory without opening it for use: never fatals on
 * corruption (that is what it is for), only on a missing directory.
 */
StoreSurvey surveyStore(const std::string &dir,
                        IoEnv &env = realIoEnv());

/**
 * Whether @p dir's meta.json is usable, reading no segment; on false
 * @p error says why. Fatal only on a missing directory.
 */
bool checkStoreMeta(const std::string &dir, std::string &error,
                    IoEnv &env = realIoEnv());

/** Outcome of gcStore(). */
struct StoreGcResult
{
    std::size_t droppedRecords = 0; //!< corrupt/torn records removed
    std::uint64_t evictedSegments = 0;
    std::uint64_t evictedBytes = 0;
    std::uint64_t bytesBefore = 0;
    std::uint64_t bytesAfter = 0;
};

/**
 * Rewrite every segment keeping only intact records (dropping
 * corrupt lines and torn tails), then enforce @p maxBytes (0 = no
 * budget) by LRU eviction, and persist a repaired meta.json.
 */
StoreGcResult gcStore(const std::string &dir, std::uint64_t maxBytes,
                      IoEnv &env = realIoEnv());

/**
 * Drop entries: all of them, or (with @p fingerprint set) only the
 * records written under one fingerprint. Returns records dropped.
 */
std::size_t invalidateStore(const std::string &dir,
                            const std::uint64_t *fingerprint,
                            IoEnv &env = realIoEnv());

/** Render session + lifetime counters (`store stats`, run reports). */
TextTable storeStatsTable(const StoreStats &stats);

/** Render a surveyStore() result (`uvmasync store stats`). */
TextTable storeSurveyTable(const StoreSurvey &survey);

} // namespace uvmasync

#endif // UVMASYNC_STORE_RESULT_STORE_HH
