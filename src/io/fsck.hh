/**
 * @file
 * `uvmasync fsck`: offline deep verification (and repair) of the
 * durable state the journal, the result store, and the campaign
 * daemon leave on disk.
 *
 * All three layers write the same checksummed record log
 * (io/record_log.hh), and each layer has one reader of its format:
 * scanJournal for journals, scanStoreSegment for store segments,
 * listBatchFiles and classifyBatch for the daemon's batches. fsck
 * is those readers plus a policy that maps each verdict to a
 * finding and a repair (DESIGN.md §16.3). One fsckPath() call
 * auto-detects what a path holds and runs every applicable check:
 *
 *  - a daemon state directory (has batches/): each batch's payload
 *    must parse and its journal must scan clean against the
 *    payload's point grid (a journal without a complete line is a
 *    note: the daemon rewrites it); orphaned journals/markers
 *    without a payload are flagged, handle-sequence gaps and
 *    cancelled-but-complete contradictions are noted;
 *  - a result-store directory (has meta.json or shards/): meta must
 *    parse, every segment must carry its shard's header and records
 *    that verify and parse, torn tails are flagged;
 *  - a standalone journal file: a current-version header, record
 *    verify and parse, index bounds against the header's point
 *    count, torn tail. A version-1 journal (no checksums) is damage.
 *
 * With FsckOptions::repair the repairable findings are fixed in
 * place: torn tails are truncated back to the last intact line,
 * a journal is truncated at its first bad record (the clean prefix
 * stays a valid resumable journal), and unrecoverable files (bad or
 * version-1 headers, unparseable payloads, orphans) are moved —
 * never deleted — into a quarantine/ subdirectory beside the damage.
 *
 * Exit-code contract (FsckReport::exitCode):
 *
 *   0  consistent — no findings beyond notes, or every damage
 *      finding was repaired this run;
 *   1  damage found (all of it repairable) and --repair not given;
 *   2  unrecoverable: unreadable state, an unrecognized path, or a
 *      repair action that itself failed.
 */

#ifndef UVMASYNC_IO_FSCK_HH
#define UVMASYNC_IO_FSCK_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/table.hh"
#include "io/io_env.hh"

namespace uvmasync
{

/** Weight of one finding (drives the exit code). */
enum class FsckSeverity
{
    Note,   //!< suspicious but consistent; never affects the exit
    Damage, //!< inconsistent, but a repair action exists
    Fatal,  //!< unrecoverable (or a repair attempt failed)
};

/** Stable severity slug ("note", "damage", "fatal"). */
const char *fsckSeverityName(FsckSeverity severity);

/** One verification finding. */
struct FsckFinding
{
    FsckSeverity severity = FsckSeverity::Damage;

    /** Layer that owns the invariant: "journal", "store", "serve". */
    std::string layer;

    /** File (or directory) the finding anchors to. */
    std::string path;

    /** What is wrong, with enough detail to act on. */
    std::string message;

    /** Set when --repair fixed this finding. */
    bool repaired = false;
};

/** How to run fsck. */
struct FsckOptions
{
    /** Truncate torn tails, quarantine unrecoverable files. */
    bool repair = false;
};

/** Everything one fsckPath() walk found (and did). */
struct FsckReport
{
    std::vector<FsckFinding> findings;

    std::size_t journalsChecked = 0; //!< journal files walked
    std::size_t storesChecked = 0;   //!< store directories walked
    std::size_t batchesChecked = 0;  //!< daemon batches walked
    std::size_t recordsChecked = 0;  //!< records verified
    std::size_t repairsApplied = 0;  //!< findings fixed in place
    std::size_t quarantined = 0;     //!< files moved to quarantine/

    /** The documented 0/1/2 contract (see file comment). */
    int exitCode() const;
};

/**
 * Verify (and with opt.repair, fix) the state at @p path — a daemon
 * state directory, a store directory, or a single journal file,
 * auto-detected. Never fatals: problems, including an unusable path,
 * become findings.
 */
FsckReport fsckPath(const std::string &path,
                    const FsckOptions &opt = {},
                    IoEnv &env = realIoEnv());

/** Render the summary counters (the `uvmasync fsck` footer). */
TextTable fsckSummaryTable(const FsckReport &report);

/** One finding as a stable single-line rendering. */
std::string fsckFindingLine(const FsckFinding &finding);

} // namespace uvmasync

#endif // UVMASYNC_IO_FSCK_HH
