/**
 * @file
 * Tests for `uvmasync fsck`: auto-detection of what a path holds,
 * the Note/Damage/Fatal severity model and its 0/1/2 exit-code
 * contract, and the repair actions — torn tails truncated back to
 * the last intact line, corrupt suffixes truncated so the clean
 * prefix stays resumable, unrecoverable files quarantined (moved,
 * never deleted), damaged store segments copied to quarantine/ and
 * rewritten via the gc machinery.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "core/parallel_runner.hh"
#include "gpu/transfer_mode.hh"
#include "io/fsck.hh"
#include "io/io_env.hh"
#include "io/record_log.hh"
#include "journal/journal.hh"
#include "journal/json.hh"
#include "serve/batch_spec.hh"
#include "serve/daemon.hh"
#include "store/result_store.hh"
#include "grid.hh"

namespace uvmasync
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "uvmasync_fsck_" + name;
}

void
removeTree(const std::string &path)
{
    struct stat st;
    if (::lstat(path.c_str(), &st) != 0)
        return;
    if (!S_ISDIR(st.st_mode)) {
        ::unlink(path.c_str());
        return;
    }
    DIR *dir = ::opendir(path.c_str());
    if (dir) {
        while (struct dirent *ent = ::readdir(dir)) {
            std::string name = ent->d_name;
            if (name == "." || name == "..")
                continue;
            removeTree(path + "/" + name);
        }
        ::closedir(dir);
    }
    ::rmdir(path.c_str());
}

std::string
readFileOr(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        return "";
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
writeFileRaw(const std::string &path, const std::string &contents)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
    ASSERT_TRUE(out.good()) << path;
}

ExperimentResult
makeResult(const ExperimentPoint &point, std::size_t i)
{
    ExperimentResult r;
    r.workload = point.workload;
    r.mode = point.mode;
    r.size = point.opts.size;
    r.clean.allocPs = 100.0 + static_cast<double>(i);
    r.clean.transferPs = 200.0 + static_cast<double>(i) / 7.0;
    r.clean.kernelPs = 300.0 * (static_cast<double>(i) + 1.0);
    r.counters.faults = i;
    r.counters.bytesH2d = 1024 * (i + 1);
    r.counters.launches = 1;
    return r;
}

PointOutcome
makeOutcome(const ExperimentPoint &point, std::size_t i)
{
    PointOutcome out;
    out.ok = true;
    out.status = PointStatus::Ok;
    out.attempts = 1;
    out.result = makeResult(point, i);
    return out;
}

/** saxpy x 5 modes: a small single-trial grid. */
std::vector<ExperimentPoint>
smallGrid(std::uint64_t seed)
{
    ExperimentOptions base;
    base.size = SizeClass::Tiny;
    base.runs = 2;
    base.baseSeed = seed;
    std::vector<TransferMode> modes(allTransferModes.begin(),
                                    allTransferModes.end());
    return expandGrid({"saxpy"}, modes, 1, base);
}

/** A fully-committed journal in @p dir; returns its path. */
std::string
buildJournal(const std::string &dir, const std::string &name,
             const std::vector<ExperimentPoint> &grid,
             std::size_t commits)
{
    realIoEnv().makeDir(dir);
    std::string path = dir + "/" + name;
    std::remove(path.c_str());
    std::unique_ptr<RunJournal> journal =
        RunJournal::create(path, grid);
    for (std::size_t i = 0; i < commits; ++i) {
        PointOutcome out = makeOutcome(grid[i], i);
        EXPECT_TRUE(journal->commit(i, out));
    }
    return path;
}

constexpr std::uint64_t fsckFp = 0xfeedfacecafe0001ull;

/** A populated result store at @p dir; returns its key count. */
std::size_t
buildStore(const std::string &dir)
{
    removeTree(dir);
    std::vector<ExperimentPoint> grid = smallGrid(42);
    std::vector<std::uint64_t> keys = {0x01, 0x42, 0x101,
                                       0x99, 0x142, 0x201};
    std::unique_ptr<ResultStore> store = ResultStore::open(dir, fsckFp);
    for (std::size_t i = 0; i < keys.size(); ++i)
        store->insert(keys[i], makeResult(grid[i % grid.size()], i));
    return keys.size();
}

std::string
batchPayload(int seed)
{
    return "batch.workload = saxpy\nbatch.size = tiny\n"
           "batch.runs = 2\nbatch.seed = " +
           std::to_string(seed) + "\n";
}

/**
 * A daemon state directory with two batches: handle 1 pending,
 * handle 2 cancelled before running. Returns the two handles.
 */
std::vector<BatchHandle>
buildServeDir(const std::string &stateDir)
{
    removeTree(stateDir);
    ServeOptions opt;
    opt.stateDir = stateDir;
    opt.jobs = 1;
    opt.paused = true;
    ServeDaemon daemon(opt);
    std::vector<BatchHandle> handles;
    for (int seed : {7, 8}) {
        std::string error;
        BatchHandle handle = daemon.submit(1, batchPayload(seed),
                                           error);
        EXPECT_NE(handle, 0u) << error;
        handles.push_back(handle);
    }
    BatchState state;
    std::string error;
    EXPECT_TRUE(daemon.cancel(handles[1], state, error)) << error;
    EXPECT_EQ(state, BatchState::Cancelled);
    daemon.stop();
    return handles;
}

std::size_t
countBySeverity(const FsckReport &report, FsckSeverity severity)
{
    std::size_t n = 0;
    for (const FsckFinding &finding : report.findings)
        if (finding.severity == severity)
            ++n;
    return n;
}

} // namespace

// ---------------------------------------------------------------------------
// Standalone journal files.
// ---------------------------------------------------------------------------

TEST(FsckJournal, CleanJournalPasses)
{
    std::string dir = tmpPath("journal_clean");
    removeTree(dir);
    std::vector<ExperimentPoint> grid = smallGrid(42);
    std::string path =
        buildJournal(dir, "run.jsonl", grid, grid.size());

    FsckReport report = fsckPath(path);
    EXPECT_TRUE(report.findings.empty()) << fsckFindingLine(report.findings[0]);
    EXPECT_EQ(report.exitCode(), 0);
    EXPECT_EQ(report.journalsChecked, 1u);
    EXPECT_EQ(report.recordsChecked, grid.size());
    removeTree(dir);
}

TEST(FsckJournal, TornTailIsTruncatedBackToBaseline)
{
    std::string dir = tmpPath("journal_torn");
    removeTree(dir);
    std::vector<ExperimentPoint> grid = smallGrid(42);
    std::string path =
        buildJournal(dir, "run.jsonl", grid, grid.size());
    std::string baseline = readFileOr(path);

    std::ofstream(path, std::ios::binary | std::ios::app)
        << "{\"point\":3,\"conf"; // a crash mid-append
    FsckReport found = fsckPath(path);
    EXPECT_EQ(found.exitCode(), 1);
    ASSERT_EQ(found.findings.size(), 1u);
    EXPECT_EQ(found.findings[0].severity, FsckSeverity::Damage);
    EXPECT_NE(found.findings[0].message.find("torn trailing record"),
              std::string::npos);

    FsckOptions repair;
    repair.repair = true;
    FsckReport fixed = fsckPath(path, repair);
    EXPECT_EQ(fixed.exitCode(), 0);
    EXPECT_EQ(fixed.repairsApplied, 1u);
    ASSERT_EQ(fixed.findings.size(), 1u);
    EXPECT_TRUE(fixed.findings[0].repaired);
    EXPECT_EQ(readFileOr(path), baseline);
    EXPECT_TRUE(fsckPath(path).findings.empty());

    // The repaired file is a valid resumable journal again.
    std::unique_ptr<RunJournal> journal =
        RunJournal::resume(path, grid);
    EXPECT_EQ(journal->restoredCount(), grid.size());
    removeTree(dir);
}

TEST(FsckJournal, CorruptRecordTruncatesTheUntrustedSuffix)
{
    std::string dir = tmpPath("journal_corrupt");
    removeTree(dir);
    std::vector<ExperimentPoint> grid = smallGrid(42);
    std::string path =
        buildJournal(dir, "run.jsonl", grid, grid.size());

    // Flip a key inside the SECOND record (line 3): the first record
    // stays trusted, everything from the flip on is not.
    std::string contents = readFileOr(path);
    std::size_t line3 = contents.find('\n');
    line3 = contents.find('\n', line3 + 1) + 1;
    std::size_t key = contents.find("\"point\"", line3);
    ASSERT_NE(key, std::string::npos);
    contents[key + 1] = 'q';
    writeFileRaw(path, contents);

    FsckReport found = fsckPath(path);
    EXPECT_EQ(found.exitCode(), 1);
    ASSERT_EQ(found.findings.size(), 1u);
    EXPECT_NE(found.findings[0].message.find(
                  "record(s) from there on are untrusted"),
              std::string::npos);

    FsckOptions repair;
    repair.repair = true;
    EXPECT_EQ(fsckPath(path, repair).exitCode(), 0);
    EXPECT_TRUE(fsckPath(path).findings.empty());

    // The clean prefix resumes (one record survived) and a refill
    // lands on the never-damaged bytes.
    std::string refPath =
        buildJournal(dir, "ref.jsonl", grid, grid.size());
    std::unique_ptr<RunJournal> journal =
        RunJournal::resume(path, grid);
    EXPECT_EQ(journal->restoredCount(), 1u);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        PointOutcome restored;
        if (journal->restore(i, restored))
            continue;
        PointOutcome out = makeOutcome(grid[i], i);
        EXPECT_TRUE(journal->commit(i, out));
    }
    journal.reset();
    EXPECT_EQ(readFileOr(path), readFileOr(refPath));
    removeTree(dir);
}

TEST(FsckJournal, UnusableHeaderIsQuarantinedNotDeleted)
{
    std::string dir = tmpPath("journal_header");
    removeTree(dir);
    realIoEnv().makeDir(dir);
    std::string garbled = dir + "/garbled.jsonl";
    writeFileRaw(garbled, "not a journal at all\n");
    std::string empty = dir + "/empty.jsonl";
    writeFileRaw(empty, "");

    EXPECT_EQ(fsckPath(garbled).exitCode(), 1);
    EXPECT_EQ(fsckPath(empty).exitCode(), 1);

    FsckOptions repair;
    repair.repair = true;
    FsckReport fixedGarbled = fsckPath(garbled, repair);
    EXPECT_EQ(fixedGarbled.exitCode(), 0);
    EXPECT_EQ(fixedGarbled.quarantined, 1u);
    FsckReport fixedEmpty = fsckPath(empty, repair);
    EXPECT_EQ(fixedEmpty.exitCode(), 0);
    EXPECT_NE(fixedEmpty.findings[0].message.find("empty journal"),
              std::string::npos);

    // Moved, not deleted: the bytes survive under quarantine/.
    EXPECT_FALSE(realIoEnv().exists(garbled));
    EXPECT_EQ(readFileOr(dir + "/quarantine/garbled.jsonl"),
              "not a journal at all\n");
    EXPECT_TRUE(realIoEnv().exists(dir + "/quarantine/empty.jsonl"));
    removeTree(dir);
}

TEST(FsckJournal, Version1JournalIsDamageAndQuarantined)
{
    // The unframed version-1 format is damage, not a second format
    // to verify: --repair moves it aside like any unusable header.
    std::string dir = tmpPath("journal_v1");
    removeTree(dir);
    std::vector<ExperimentPoint> grid = smallGrid(42);
    std::string path = buildJournal(dir, "run.jsonl", grid, 2);
    std::string legacy;
    for (const LogRecord &rec : scanRecordLog(readFileOr(path)).records)
        legacy += rec.payload + "\n";
    std::size_t version = legacy.find("\"version\":2");
    ASSERT_NE(version, std::string::npos);
    legacy[version + 10] = '1';
    writeFileRaw(path, legacy);

    FsckReport found = fsckPath(path);
    EXPECT_EQ(found.exitCode(), 1);
    ASSERT_EQ(found.findings.size(), 1u);
    EXPECT_NE(found.findings[0].message.find("format version 1"),
              std::string::npos)
        << found.findings[0].message;

    FsckOptions repair;
    repair.repair = true;
    FsckReport fixed = fsckPath(path, repair);
    EXPECT_EQ(fixed.exitCode(), 0);
    EXPECT_EQ(fixed.quarantined, 1u);
    EXPECT_EQ(readFileOr(dir + "/quarantine/run.jsonl"), legacy);
    removeTree(dir);
}

// ---------------------------------------------------------------------------
// Result-store directories.
// ---------------------------------------------------------------------------

TEST(FsckStore, CleanStorePasses)
{
    std::string dir = tmpPath("store_clean");
    std::size_t records = buildStore(dir);

    FsckReport report = fsckPath(dir);
    EXPECT_TRUE(report.findings.empty()) << fsckFindingLine(report.findings[0]);
    EXPECT_EQ(report.exitCode(), 0);
    EXPECT_EQ(report.storesChecked, 1u);
    EXPECT_EQ(report.recordsChecked, records);
    removeTree(dir);
}

/** Forwards to the real filesystem, counting reads per path. */
class ReadCountingEnv : public IoEnv
{
  public:
    std::map<std::string, int> reads;

    std::unique_ptr<IoFile>
    openTrunc(const std::string &path, IoStatus &st) override
    {
        return realIoEnv().openTrunc(path, st);
    }
    std::unique_ptr<IoFile>
    openAppend(const std::string &path, IoStatus &st) override
    {
        return realIoEnv().openAppend(path, st);
    }
    IoStatus
    truncateFile(const std::string &path, std::uint64_t size) override
    {
        return realIoEnv().truncateFile(path, size);
    }
    IoStatus
    readFile(const std::string &path, std::string &out) override
    {
        ++reads[path];
        return realIoEnv().readFile(path, out);
    }
    bool exists(const std::string &path) override
    {
        return realIoEnv().exists(path);
    }
    IoStatus makeDir(const std::string &path) override
    {
        return realIoEnv().makeDir(path);
    }
    IoStatus
    renameFile(const std::string &from, const std::string &to) override
    {
        return realIoEnv().renameFile(from, to);
    }
    IoStatus removeFile(const std::string &path) override
    {
        return realIoEnv().removeFile(path);
    }
    IoStatus
    listDir(const std::string &path,
            std::vector<std::string> &names) override
    {
        return realIoEnv().listDir(path, names);
    }
};

TEST(FsckStore, ReadsEachSegmentOnce)
{
    std::string dir = tmpPath("store_reads");
    buildStore(dir);

    ReadCountingEnv env;
    FsckReport report = fsckPath(dir, {}, env);
    EXPECT_TRUE(report.findings.empty());
    std::size_t segments = 0;
    for (const auto &[path, count] : env.reads) {
        if (path.find("/shards/") == std::string::npos)
            continue;
        ++segments;
        EXPECT_EQ(count, 1) << path;
    }
    EXPECT_EQ(segments, storeSegmentFiles(dir, realIoEnv()).size());
    EXPECT_GT(segments, 1u);
    removeTree(dir);
}

TEST(FsckStore, FlippedByteIsQuarantinedThenRewritten)
{
    std::string dir = tmpPath("store_flip");
    std::size_t records = buildStore(dir);

    // Flip a byte inside shard 0x01's first record: its checksum no
    // longer matches.
    std::string path = dir + "/shards/s01";
    std::string contents = readFileOr(path);
    ASSERT_FALSE(contents.empty());
    std::size_t key = contents.find("\"crc\"", contents.find('\n'));
    ASSERT_NE(key, std::string::npos);
    std::string damaged = contents;
    damaged[key + 1] = 'x';
    writeFileRaw(path, damaged);

    FsckReport found = fsckPath(dir);
    EXPECT_EQ(found.exitCode(), 1);
    EXPECT_EQ(countBySeverity(found, FsckSeverity::Damage), 1u);
    EXPECT_NE(found.findings[0].message.find("checksum"),
              std::string::npos);

    FsckOptions repair;
    repair.repair = true;
    FsckReport fixed = fsckPath(dir, repair);
    EXPECT_EQ(fixed.exitCode(), 0);
    EXPECT_EQ(fixed.quarantined, 1u);

    // The damaged bytes were preserved verbatim, the live segment
    // was rewritten intact-records-only, and the store is clean.
    EXPECT_EQ(readFileOr(dir + "/quarantine/s01"), damaged);
    StoreSurvey survey = surveyStore(dir);
    EXPECT_TRUE(survey.clean()) << survey.metaError;
    EXPECT_EQ(survey.records, records - 1);
    EXPECT_TRUE(fsckPath(dir).findings.empty());
    removeTree(dir);
}

TEST(FsckStore, WrongShardHeaderIsQuarantined)
{
    std::string dir = tmpPath("store_header");
    buildStore(dir);
    std::string path = dir + "/shards/s42";
    std::string damaged = "this is not a segment header\nx\n";
    writeFileRaw(path, damaged);

    FsckReport found = fsckPath(dir);
    EXPECT_EQ(found.exitCode(), 1);

    FsckOptions repair;
    repair.repair = true;
    FsckReport fixed = fsckPath(dir, repair);
    EXPECT_EQ(fixed.exitCode(), 0);
    EXPECT_EQ(fixed.quarantined, 1u);
    EXPECT_FALSE(realIoEnv().exists(path));
    EXPECT_EQ(readFileOr(dir + "/quarantine/s42"), damaged);
    EXPECT_TRUE(fsckPath(dir).findings.empty());
    removeTree(dir);
}

// ---------------------------------------------------------------------------
// Daemon state directories (the cross-layer checks).
// ---------------------------------------------------------------------------

TEST(FsckServe, CleanStateDirPasses)
{
    std::string dir = tmpPath("serve_clean");
    std::vector<BatchHandle> handles = buildServeDir(dir);

    // Give the pending batch a journal with one committed record,
    // built from the payload's own grid — the cross-layer contract.
    std::string payload =
        readFileOr(dir + "/batches/" + hexU64(handles[0]) + ".kv");
    BatchSpec spec;
    std::string error;
    ASSERT_TRUE(parseBatchSpec(payload, spec, error)) << error;
    std::vector<ExperimentPoint> points = batchSpecPoints(spec);
    {
        std::unique_ptr<RunJournal> journal = RunJournal::create(
            dir + "/batches/" + hexU64(handles[0]) + ".jsonl",
            points);
        PointOutcome out = makeOutcome(points[0], 0);
        EXPECT_TRUE(journal->commit(0, out));
    }

    FsckReport report = fsckPath(dir);
    EXPECT_TRUE(report.findings.empty()) << fsckFindingLine(report.findings[0]);
    EXPECT_EQ(report.exitCode(), 0);
    EXPECT_EQ(report.batchesChecked, 2u);
    EXPECT_EQ(report.journalsChecked, 1u);
    EXPECT_EQ(report.recordsChecked, 1u);
    removeTree(dir);
}

TEST(FsckServe, OrphanedBatchFilesAreQuarantined)
{
    std::string dir = tmpPath("serve_orphan");
    buildServeDir(dir);
    std::string orphan = dir + "/batches/00000000000000ff.jsonl";
    writeFileRaw(orphan, "whatever the crash left behind\n");

    FsckReport found = fsckPath(dir);
    EXPECT_EQ(found.exitCode(), 1);
    EXPECT_EQ(countBySeverity(found, FsckSeverity::Damage), 1u);
    EXPECT_NE(found.findings[0].message.find("orphaned batch file"),
              std::string::npos);

    FsckOptions repair;
    repair.repair = true;
    FsckReport fixed = fsckPath(dir, repair);
    EXPECT_EQ(fixed.exitCode(), 0);
    EXPECT_EQ(fixed.quarantined, 1u);
    EXPECT_FALSE(realIoEnv().exists(orphan));
    EXPECT_TRUE(realIoEnv().exists(
        dir + "/quarantine/00000000000000ff.jsonl"));
    EXPECT_TRUE(fsckPath(dir).findings.empty());
    removeTree(dir);
}

TEST(FsckServe, UnparseablePayloadQuarantinesItsCompanions)
{
    std::string dir = tmpPath("serve_payload");
    std::vector<BatchHandle> handles = buildServeDir(dir);

    // Batch 2 has a payload AND a cancel marker; garble the payload.
    std::string stem = dir + "/batches/" + hexU64(handles[1]);
    writeFileRaw(stem + ".kv", "garbage without structure\n");

    FsckReport found = fsckPath(dir);
    EXPECT_EQ(found.exitCode(), 1);
    ASSERT_EQ(found.findings.size(), 1u);
    EXPECT_NE(found.findings[0].message.find("payload does not parse"),
              std::string::npos);

    FsckOptions repair;
    repair.repair = true;
    FsckReport fixed = fsckPath(dir, repair);
    EXPECT_EQ(fixed.exitCode(), 0);
    EXPECT_EQ(fixed.quarantined, 2u) << "payload and marker";
    EXPECT_FALSE(realIoEnv().exists(stem + ".kv"));
    EXPECT_FALSE(realIoEnv().exists(stem + ".cancelled"));
    EXPECT_TRUE(fsckPath(dir).findings.empty());
    removeTree(dir);
}

TEST(FsckServe, JournalOfAnotherGridIsACampaignMismatch)
{
    std::string dir = tmpPath("serve_campaign");
    std::vector<BatchHandle> handles = buildServeDir(dir);

    // A journal whose grid is NOT what the payload expands to.
    std::vector<ExperimentPoint> wrong = smallGrid(1234);
    std::string journalPath =
        dir + "/batches/" + hexU64(handles[0]) + ".jsonl";
    {
        std::unique_ptr<RunJournal> journal =
            RunJournal::create(journalPath, wrong);
    }

    FsckReport found = fsckPath(dir);
    EXPECT_EQ(found.exitCode(), 1);
    ASSERT_EQ(found.findings.size(), 1u);
    EXPECT_NE(found.findings[0].message.find("campaign mismatch"),
              std::string::npos);

    FsckOptions repair;
    repair.repair = true;
    EXPECT_EQ(fsckPath(dir, repair).exitCode(), 0);
    EXPECT_FALSE(realIoEnv().exists(journalPath));
    EXPECT_TRUE(fsckPath(dir).findings.empty());
    removeTree(dir);
}

TEST(FsckServe, SequenceGapAndCancelledCompleteAreNotes)
{
    std::string dir = tmpPath("serve_notes");
    std::vector<BatchHandle> handles = buildServeDir(dir);

    // A fully-recorded journal under the cancelled batch: recovery
    // will classify it cancelled, which deserves a heads-up.
    std::string payload =
        readFileOr(dir + "/batches/" + hexU64(handles[1]) + ".kv");
    BatchSpec spec;
    std::string error;
    ASSERT_TRUE(parseBatchSpec(payload, spec, error)) << error;
    std::vector<ExperimentPoint> points = batchSpecPoints(spec);
    {
        std::unique_ptr<RunJournal> journal = RunJournal::create(
            dir + "/batches/" + hexU64(handles[1]) + ".jsonl",
            points);
        for (std::size_t i = 0; i < points.size(); ++i) {
            PointOutcome out = makeOutcome(points[i], i);
            EXPECT_TRUE(journal->commit(i, out));
        }
    }
    // And a handle gap: a payload far past the contiguous range.
    writeFileRaw(dir + "/batches/00000000000000aa.kv",
                 batchPayload(9));

    FsckReport report = fsckPath(dir);
    EXPECT_EQ(report.exitCode(), 0) << "notes never fail the check";
    EXPECT_EQ(countBySeverity(report, FsckSeverity::Note), 2u);
    EXPECT_EQ(countBySeverity(report, FsckSeverity::Damage), 0u);
    removeTree(dir);
}

// ---------------------------------------------------------------------------
// Path auto-detection and the report contract.
// ---------------------------------------------------------------------------

TEST(FsckPath, MissingAndUnrecognizedPathsAreFatal)
{
    std::string missing = tmpPath("no_such_path");
    removeTree(missing);
    FsckReport gone = fsckPath(missing);
    EXPECT_EQ(gone.exitCode(), 2);
    ASSERT_EQ(gone.findings.size(), 1u);
    EXPECT_EQ(gone.findings[0].severity, FsckSeverity::Fatal);
    EXPECT_EQ(gone.findings[0].layer, "fsck");

    std::string stray = tmpPath("stray_dir");
    removeTree(stray);
    realIoEnv().makeDir(stray);
    FsckReport odd = fsckPath(stray);
    EXPECT_EQ(odd.exitCode(), 2);
    ASSERT_EQ(odd.findings.size(), 1u);
    EXPECT_NE(odd.findings[0].message.find("not a daemon state"),
              std::string::npos);
    removeTree(stray);
}

TEST(FsckReport, ExitCodeContract)
{
    FsckReport report;
    EXPECT_EQ(report.exitCode(), 0);

    FsckFinding note;
    note.severity = FsckSeverity::Note;
    report.findings.push_back(note);
    EXPECT_EQ(report.exitCode(), 0);

    FsckFinding damage;
    damage.severity = FsckSeverity::Damage;
    report.findings.push_back(damage);
    EXPECT_EQ(report.exitCode(), 1);

    report.findings.back().repaired = true;
    EXPECT_EQ(report.exitCode(), 0);

    FsckFinding fatal;
    fatal.severity = FsckSeverity::Fatal;
    report.findings.push_back(fatal);
    EXPECT_EQ(report.exitCode(), 2);
}

TEST(FsckReport, FindingLineFormat)
{
    FsckFinding finding;
    finding.severity = FsckSeverity::Damage;
    finding.layer = "journal";
    finding.path = "/tmp/x.jsonl";
    finding.message = "torn trailing record";
    EXPECT_EQ(fsckFindingLine(finding),
              "damage [journal] /tmp/x.jsonl: torn trailing record");
    finding.repaired = true;
    EXPECT_EQ(
        fsckFindingLine(finding),
        "damage [journal] /tmp/x.jsonl: torn trailing record "
        "(repaired)");

    EXPECT_STREQ(fsckSeverityName(FsckSeverity::Note), "note");
    EXPECT_STREQ(fsckSeverityName(FsckSeverity::Fatal), "fatal");
}

} // namespace uvmasync
