/**
 * @file
 * Crash-safe run journal: an append-only, fsync'd write-ahead log of
 * per-point experiment outcomes on the checksummed record log
 * (io/record_log.hh).
 *
 * The ParallelRunner commits outcomes in submission order (the same
 * merge that makes `--jobs N` output byte-identical to `--jobs 1`),
 * so the journal file is byte-deterministic at any job count and
 * every record on disk is a durable prefix of the batch: a crash —
 * or a kill at an arbitrary line boundary — loses at most the
 * in-flight suffix, and `--resume` replays the rest.
 *
 * Format version 2: line 1 is the framed header (campaign hash and
 * point count), every later line one framed terminal record. Every
 * record carries the point's configuration hash; resume validates
 * each restored record (and the header's campaign hash) against the
 * live point grid and refuses a stale journal with an actionable
 * fatal instead of silently mixing results from two campaigns. A
 * record whose checksum fails stops resume at that line with a
 * pointer to `uvmasync fsck --repair`, which cuts the journal back to
 * its intact prefix; a torn final line is dropped. Version-1 journals
 * (no checksums) are refused, never read. Simulated results
 * round-trip exactly: doubles are stored as %a hexfloat strings, so a
 * resumed sweep's merged CSV is byte-identical to an uninterrupted
 * run.
 */

#ifndef UVMASYNC_JOURNAL_JOURNAL_HH
#define UVMASYNC_JOURNAL_JOURNAL_HH

#include <memory>
#include <string>
#include <vector>

#include "core/parallel_runner.hh"
#include "io/io_env.hh"
#include "io/record_log.hh"
#include "journal/json.hh"

namespace uvmasync
{

/**
 * Stable 64-bit hash of one point's full configuration: workload,
 * mode, every ExperimentOptions knob including the inject plan, and
 * for a job-file point the file's content hash. Machine-independent
 * (FNV-1a over the field values, doubles by bit pattern, finalized
 * with splitmix64).
 */
std::uint64_t pointConfigHash(const ExperimentPoint &point);

/** Campaign identity: FNV-1a over the per-point config hashes. */
std::uint64_t campaignHash(const std::vector<ExperimentPoint> &points);

/**
 * The journal file. Create one per batch with create() (fresh run)
 * or resume() (continue an interrupted run), then hand it to the
 * ParallelRunner via RunPolicy::journal.
 */
class RunJournal : public PointJournal
{
  public:
    /**
     * Start a fresh journal at @p path for @p points: truncates,
     * writes the fsync'd header line, and keeps the file open for
     * appending. All I/O goes through @p env (the default is the
     * real filesystem). fatal() if the path is unwritable.
     */
    static std::unique_ptr<RunJournal>
    create(const std::string &path,
           const std::vector<ExperimentPoint> &points,
           IoEnv &env = realIoEnv());

    /**
     * Reopen an interrupted journal: validates the header against
     * @p points (campaign hash and point count), loads every terminal
     * record (a torn trailing line is dropped), and reopens the file
     * for appending the remainder. fatal() with an actionable message
     * when the journal is unreadable, a version-1 journal, belongs to
     * a different campaign, or holds a record that fails its checksum.
     */
    static std::unique_ptr<RunJournal>
    resume(const std::string &path,
           const std::vector<ExperimentPoint> &points,
           IoEnv &env = realIoEnv());

    ~RunJournal() override;

    RunJournal(const RunJournal &) = delete;
    RunJournal &operator=(const RunJournal &) = delete;

    /** PointJournal: hand back a restored outcome, if any. */
    bool restore(std::size_t index, PointOutcome &out) override;

    /**
     * PointJournal: append + fsync one terminal record. Returns
     * false when the record could not be made durable; the first
     * hard write error makes the journal permanently inert (the file
     * is truncated back to its last intact record and closed, so
     * what is on disk stays a clean resumable prefix) and the run
     * degrades to journal-less instead of dying.
     */
    bool commit(std::size_t index, PointOutcome &out) override;

    /** Points loaded by resume() and not yet handed out. */
    std::size_t restoredCount() const { return restoredCount_; }

    /** True once a write error has made the journal inert. */
    bool writeFailed() const { return log_.failed(); }

    /** errno text of the write error that made the journal inert. */
    const std::string &writeError() const { return log_.error(); }

    const std::string &path() const { return path_; }

  private:
    RunJournal(const std::string &path,
               const std::vector<ExperimentPoint> &points, IoEnv &env);

    std::string path_;
    RecordAppender log_; //!< fsyncs every record
    std::vector<ExperimentPoint> points_;
    std::vector<std::uint64_t> configHashes_;

    /** Restored outcomes by point index (kind Null = must run). */
    std::vector<std::unique_ptr<PointOutcome>> restored_;
    std::size_t restoredCount_ = 0;
};

/** @{
 * ExperimentResult (de)serialization in the journal's exact hexfloat
 * JSON layout. Shared with the content-addressed result store
 * (src/store), so a result round-trips bit-identically through either
 * layer. Field order is part of the on-disk format (version-gated).
 */
void writeResultJson(JsonWriter &w, const ExperimentResult &r);
bool readResultJson(const JsonValue &v, ExperimentResult &out);
/** @} */

/** @{
 * Record payloads (what the record log frames). The daemon streams
 * record payloads, and clients parse them with parseJournalRecord.
 */
std::string journalHeaderLine(const std::vector<ExperimentPoint> &points);
std::string journalRecordLine(std::size_t index, std::uint64_t configHash,
                              const ExperimentPoint &point,
                              const PointOutcome &outcome);
bool parseJournalRecord(const std::string &line, std::size_t &index,
                        std::uint64_t &configHash, PointOutcome &outcome,
                        std::string &error);
/** @} */

/** True when @p contents starts like a version-1 (unframed) journal. */
bool legacyJournal(const std::string &contents);

/** What scanJournal() made of a journal's first line. */
enum class JournalHeader
{
    Ok,            //!< a current header (the grid's own, given one)
    Missing,       //!< no complete line: empty, or a torn header
    Version1,      //!< a version-1 journal, which has no checksums
    Unusable,      //!< line 1 fails its frame or is no current header
    OtherCampaign, //!< a current header written for another grid
};

/** Why scanJournal() stopped before the last complete record. */
enum class JournalFault
{
    None,
    Corrupt,     //!< the record fails its frame or its parse
    OutsideGrid, //!< its point index is past the header's count
    OtherConfig, //!< its config hash is not its grid point's
};

/** One record that passed every check. */
struct JournalRecord
{
    std::size_t line = 0;  //!< index into JournalScan::log.records
    std::size_t point = 0; //!< the point index it records
    PointOutcome outcome;
};

/** Everything scanJournal() learned about one journal file. */
struct JournalScan
{
    RecordScan log; //!< the frames, payloads included
    JournalHeader header = JournalHeader::Missing;
    std::string error; //!< why line 1 is Unusable, or a record Corrupt
    std::uint64_t campaign = 0; //!< the header's campaign hash
    std::size_t points = 0;     //!< the header's point count

    /** Good records in file order, up to the first that failed. */
    std::vector<JournalRecord> records;

    JournalFault fault = JournalFault::None;
    std::size_t faultLine = 0;  //!< index into log.records
    std::size_t faultPoint = 0; //!< the point it claims (grid faults)

    /** Byte offset where the header and the good records end. */
    std::uint64_t goodEnd = 0;
};

/**
 * The one reader of journal bytes. With @p grid, the header must be
 * the grid's own and every record's config hash its point's; without
 * one, any current header is Ok and indices are checked against its
 * point count. Records are read only under an Ok header. What a
 * verdict means is the caller's policy: `--resume` refuses, the
 * daemon rewrites or refuses, fsck reports and repairs.
 */
JournalScan scanJournal(const std::string &contents,
                        const std::vector<ExperimentPoint> *grid);

} // namespace uvmasync

#endif // UVMASYNC_JOURNAL_JOURNAL_HH
