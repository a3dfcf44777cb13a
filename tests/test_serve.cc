/**
 * @file
 * The campaign-daemon test battery: every guarantee the batch CLI
 * earned, re-proven under the daemon.
 *
 *  - wire codec: split delivery, empty/oversized payloads, sticky
 *    corruption, blocking fd round trips;
 *  - batch specs: defaults, did-you-mean rejection, and point-grid
 *    equivalence with the CLI's `run` construction (campaign hash);
 *  - admission: round-robin fairness across clients, cancel removal;
 *  - runner: cooperative cancel (no journal pollution), merge
 *    callback in strict submission order at any job count;
 *  - daemon: the headline equivalence — a batch's streamed results
 *    are byte-identical to the batch CLI's journal for the same
 *    batch, at different job counts, cold and warm store, across a
 *    kill of the daemon at EVERY record boundary, and across a
 *    restart with pending submissions;
 *  - cancel lifecycle: a cancelled pending batch never runs, and
 *    stays cancelled across restart;
 *  - preflight: unwritable state dir and unbindable socket die at
 *    startup (death tests);
 *  - socket front end: concurrent clients each get their own
 *    byte-exact stream, bad requests get actionable Error frames,
 *    garbage bytes drop only the offending connection.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/logging.hh"
#include "core/parallel_runner.hh"
#include "io/fsck.hh"
#include "io/record_log.hh"
#include "journal/journal.hh"
#include "journal/json.hh"
#include "serve/admission.hh"
#include "serve/batch_spec.hh"
#include "serve/daemon.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "workloads/registry.hh"
#include "wait_terminal.hh"

namespace uvmasync
{
namespace
{

std::string
tmpDir(const std::string &name)
{
    return ::testing::TempDir() + "uvmasync_serve_" + name;
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
    if (DIR *dir = ::opendir(path.c_str())) {
        while (struct dirent *entry = ::readdir(dir)) {
            std::string name = entry->d_name;
            if (name == "." || name == "..")
                continue;
            removeTree(path + "/" + name);
        }
        ::closedir(dir);
    }
    ::rmdir(path.c_str());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
writeFile(const std::string &path, const std::string &contents)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
    ASSERT_TRUE(out.good()) << path;
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** The battery's canonical small batch (5 modes x saxpy/tiny). */
std::string
saxpyPayload(std::uint64_t seed = 42)
{
    return "batch.workload = saxpy\n"
           "batch.size = tiny\n"
           "batch.runs = 2\n"
           "batch.seed = " +
           std::to_string(seed) + "\n";
}

/** Split journal text into its lines ('\n' kept). */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos)
            break;
        lines.push_back(text.substr(start, nl - start + 1));
        start = nl + 1;
    }
    return lines;
}

/**
 * Record payloads of a journal file (everything after the header),
 * each '\n'-terminated: exactly what the daemon streams.
 */
std::string
journalRecords(const std::string &journalText)
{
    RecordScan scan = scanRecordLog(journalText);
    std::string records;
    for (std::size_t i = 1; i < scan.records.size(); ++i)
        records += scan.records[i].payload + "\n";
    return records;
}

/**
 * A fresh daemon state directory holding batch 1 with @p payload
 * and, when given, @p journal as its journal; returns the batch's
 * path stem (<state>/batches/0000000000000001).
 */
std::string
batchState(const std::string &state, const std::string &payload,
           const std::string *journal)
{
    removeTree(state);
    EXPECT_EQ(::mkdir(state.c_str(), 0777), 0);
    EXPECT_EQ(::mkdir((state + "/batches").c_str(), 0777), 0);
    std::string base = state + "/batches/" + hexU64(1);
    writeFile(base + ".kv", payload);
    if (journal)
        writeFile(base + ".jsonl", *journal);
    return base;
}

/**
 * The ground truth: run @p payload's batch exactly as the batch CLI
 * would (`uvmasync run --journal FILE --jobs N`) and return the
 * journal file's full bytes.
 */
std::string
referenceJournal(const std::string &payload, unsigned jobs)
{
    BatchSpec spec;
    std::string error;
    EXPECT_TRUE(parseBatchSpec(payload, spec, error)) << error;
    std::vector<ExperimentPoint> points = batchSpecPoints(spec);
    // Per-process: ctest runs the tests of this binary concurrently.
    std::string path = ::testing::TempDir() + "uvmasync_serve_ref_" +
                       std::to_string(::getpid()) + ".jsonl";
    ::unlink(path.c_str());
    {
        std::unique_ptr<RunJournal> journal =
            RunJournal::create(path, points);
        RunPolicy policy;
        policy.retries = spec.retries;
        policy.journal = journal.get();
        ParallelRunner runner(SystemConfig::a100Epyc(), jobs);
        BatchResult batch = runner.runPoints(points, policy);
        EXPECT_TRUE(batch.allOk());
    }
    std::string text = readFile(path);
    ::unlink(path.c_str());
    return text;
}

// ---------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------

TEST(ServeWire, RoundTripSurvivesArbitrarySplits)
{
    std::string bytes =
        encodeFrame(FrameType::Submit, "batch.workload = saxpy\n") +
        encodeFrame(FrameType::Stats, "") +
        encodeFrame(FrameType::StreamChunk,
                    std::string(1000, 'x'));
    // Feed the concatenation one byte at a time: framing must never
    // depend on recv() boundaries.
    FrameReader reader;
    std::vector<Frame> frames;
    for (char c : bytes) {
        reader.feed(&c, 1);
        Frame frame;
        std::string error;
        while (reader.next(frame, error))
            frames.push_back(frame);
        EXPECT_TRUE(error.empty()) << error;
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].type, FrameType::Submit);
    EXPECT_EQ(frames[0].payload, "batch.workload = saxpy\n");
    EXPECT_EQ(frames[1].type, FrameType::Stats);
    EXPECT_TRUE(frames[1].payload.empty());
    EXPECT_EQ(frames[2].type, FrameType::StreamChunk);
    EXPECT_EQ(frames[2].payload, std::string(1000, 'x'));
    EXPECT_EQ(reader.pending(), 0u);
}

TEST(ServeWire, UnknownTypeByteIsStickyCorruption)
{
    FrameReader reader;
    const char garbage[] = {0, 0, 0, 0, 99};
    reader.feed(garbage, sizeof(garbage));
    Frame frame;
    std::string error;
    EXPECT_FALSE(reader.next(frame, error));
    EXPECT_NE(error.find("unknown frame type"), std::string::npos)
        << error;
    EXPECT_TRUE(reader.corrupt());
    // Later (even well-formed) bytes cannot resynchronize.
    std::string good = encodeFrame(FrameType::Stats, "");
    reader.feed(good.data(), good.size());
    EXPECT_FALSE(reader.next(frame, error));
    EXPECT_TRUE(reader.corrupt());
}

TEST(ServeWire, OversizedLengthPrefixIsRejectedNotAllocated)
{
    // 0xffffffff announced: must be a protocol error, never an
    // allocation attempt.
    FrameReader reader;
    const unsigned char garbage[] = {0xff, 0xff, 0xff, 0xff, 1};
    reader.feed(garbage, sizeof(garbage));
    Frame frame;
    std::string error;
    EXPECT_FALSE(reader.next(frame, error));
    EXPECT_NE(error.find("protocol ceiling"), std::string::npos)
        << error;
}

TEST(ServeWire, EncodeRefusesOversizedPayload)
{
    FatalThrowScope guard;
    EXPECT_THROW(encodeFrame(FrameType::StreamChunk,
                             std::string(maxFramePayload + 1, 'x')),
                 FatalError);
}

TEST(ServeWire, StreamSliceBytesCutsAtRecordBoundaries)
{
    const std::string lines = "aaaa\nbb\ncccc\n";
    // A big enough cap takes everything in one slice.
    EXPECT_EQ(streamSliceBytes(lines, 0, 1024), lines.size());
    // A cap landing mid-line cuts back to the last boundary.
    EXPECT_EQ(streamSliceBytes(lines, 0, 7), 5u);
    // A cap landing exactly on a boundary keeps it.
    EXPECT_EQ(streamSliceBytes(lines, 0, 8), 8u);
    // Resuming mid-string respects boundaries too.
    EXPECT_EQ(streamSliceBytes(lines, 5, 7), 3u);
    // A single line longer than the cap splits mid-line rather than
    // stalling.
    EXPECT_EQ(streamSliceBytes("0123456789\n", 0, 4), 4u);
    EXPECT_EQ(streamSliceBytes(lines, lines.size(), 4), 0u);
    // Concatenated slices reproduce the bytes exactly at any cap.
    for (std::size_t cap = 1; cap <= lines.size() + 1; ++cap) {
        std::string joined;
        std::size_t offset = 0;
        while (offset < lines.size()) {
            std::size_t take = streamSliceBytes(lines, offset, cap);
            ASSERT_GT(take, 0u);
            ASSERT_LE(take, cap);
            joined += lines.substr(offset, take);
            offset += take;
        }
        EXPECT_EQ(joined, lines) << "cap " << cap;
    }
}

TEST(ServeWire, BlockingFdRoundTripAndEof)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::string error;
    ASSERT_TRUE(
        writeFrame(fds[0], FrameType::Submit, "payload", error))
        << error;
    Frame frame;
    ASSERT_TRUE(readFrame(fds[1], frame, error)) << error;
    EXPECT_EQ(frame.type, FrameType::Submit);
    EXPECT_EQ(frame.payload, "payload");
    ::close(fds[0]);
    EXPECT_FALSE(readFrame(fds[1], frame, error));
    EXPECT_NE(error.find("connection closed"), std::string::npos)
        << error;
    ::close(fds[1]);
}

// ---------------------------------------------------------------
// Batch specs
// ---------------------------------------------------------------

TEST(ServeBatchSpec, DefaultsMatchTheCliRunCommand)
{
    registerAllWorkloads();
    BatchSpec spec;
    std::string error;
    ASSERT_TRUE(
        parseBatchSpec("batch.workload = saxpy\n", spec, error))
        << error;
    EXPECT_EQ(spec.workload, "saxpy");
    EXPECT_EQ(spec.size, SizeClass::Super);
    EXPECT_EQ(spec.runs, 30u);
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_TRUE(spec.modes.empty()); // all five
    EXPECT_EQ(spec.retries, 1u);

    std::vector<ExperimentPoint> points = batchSpecPoints(spec);
    ASSERT_EQ(points.size(), allTransferModes.size());
    // Field-for-field what cmdRun builds with default flags.
    ExperimentOptions expected;
    expected.size = SizeClass::Super;
    expected.runs = 30;
    expected.baseSeed = 42;
    std::vector<ExperimentPoint> cli;
    for (TransferMode m : allTransferModes)
        cli.push_back(ExperimentPoint{"saxpy", m, expected});
    EXPECT_EQ(campaignHash(points), campaignHash(cli));
}

TEST(ServeBatchSpec, PayloadRoundTripPreservesTheCampaign)
{
    registerAllWorkloads();
    BatchSpec spec;
    std::string error;
    ASSERT_TRUE(parseBatchSpec("batch.workload = gemv\n"
                               "batch.size = tiny\n"
                               "batch.runs = 3\n"
                               "batch.seed = 7\n"
                               "batch.mode = uvm\n"
                               "batch.threads = 128\n",
                               spec, error))
        << error;
    BatchSpec again;
    ASSERT_TRUE(
        parseBatchSpec(batchSpecPayload(spec), again, error))
        << error;
    EXPECT_EQ(campaignHash(batchSpecPoints(spec)),
              campaignHash(batchSpecPoints(again)));
    ASSERT_EQ(again.modes.size(), 1u);
    EXPECT_EQ(again.modes[0], TransferMode::Uvm);
}

TEST(ServeBatchSpec, RejectionsAreActionable)
{
    registerAllWorkloads();
    BatchSpec spec;
    std::string error;

    EXPECT_FALSE(parseBatchSpec("batch.size = tiny\n", spec, error));
    EXPECT_NE(error.find("batch.workload is required"),
              std::string::npos)
        << error;

    EXPECT_FALSE(
        parseBatchSpec("batch.workload = saxpyy\n", spec, error));
    EXPECT_NE(error.find("unknown workload"), std::string::npos);
    EXPECT_NE(error.find("did you mean 'saxpy'"), std::string::npos)
        << error;

    EXPECT_FALSE(parseBatchSpec("batch.workload = saxpy\n"
                                "batch.sizee = tiny\n",
                                spec, error));
    EXPECT_NE(error.find("unknown batch key"), std::string::npos);
    EXPECT_NE(error.find("did you mean 'batch.size'"),
              std::string::npos)
        << error;

    EXPECT_FALSE(parseBatchSpec("batch.workload = saxpy\n"
                                "batch.size = enormous\n",
                                spec, error));
    EXPECT_NE(error.find("unknown size class"), std::string::npos);

    EXPECT_FALSE(parseBatchSpec("batch.workload = saxpy\n"
                                "batch.mode = warp\n",
                                spec, error));
    EXPECT_NE(error.find("unknown mode"), std::string::npos);

    EXPECT_FALSE(parseBatchSpec("batch.workload = saxpy\n"
                                "batch.runs = 0\n",
                                spec, error));
    EXPECT_NE(error.find("batch.runs"), std::string::npos);

    // A malformed number must come back as an error string, never
    // kill the caller (the daemon wraps the typed getters).
    EXPECT_FALSE(parseBatchSpec("batch.workload = saxpy\n"
                                "batch.runs = banana\n",
                                spec, error));
    EXPECT_FALSE(error.empty());

    // A negative seed must be rejected like the other ranges, not
    // silently wrap to a huge unsigned value.
    EXPECT_FALSE(parseBatchSpec("batch.workload = saxpy\n"
                                "batch.seed = -1\n",
                                spec, error));
    EXPECT_NE(error.find("batch.seed"), std::string::npos) << error;
}

// ---------------------------------------------------------------
// Admission queue
// ---------------------------------------------------------------

TEST(ServeAdmission, RoundRobinOverClientsIsFair)
{
    AdmissionQueue queue;
    // Client 1 floods three batches before client 2 submits one:
    // client 2 still runs second, not fourth.
    queue.admit(1, 101);
    queue.admit(1, 102);
    queue.admit(1, 103);
    queue.admit(2, 201);
    std::vector<BatchHandle> order;
    BatchHandle handle = 0;
    while (queue.next(handle))
        order.push_back(handle);
    EXPECT_EQ(order,
              (std::vector<BatchHandle>{101, 201, 102, 103}));
    EXPECT_TRUE(queue.empty());
}

TEST(ServeAdmission, InterleavesThreeClients)
{
    AdmissionQueue queue;
    queue.admit(1, 11);
    queue.admit(1, 12);
    queue.admit(2, 21);
    queue.admit(2, 22);
    queue.admit(3, 31);
    std::vector<BatchHandle> order;
    BatchHandle handle = 0;
    while (queue.next(handle))
        order.push_back(handle);
    EXPECT_EQ(order,
              (std::vector<BatchHandle>{11, 21, 31, 12, 22}));
}

TEST(ServeAdmission, RemoveDropsExactlyOneBatch)
{
    AdmissionQueue queue;
    queue.admit(1, 11);
    queue.admit(1, 12);
    queue.admit(2, 21);
    EXPECT_TRUE(queue.remove(12));
    EXPECT_FALSE(queue.remove(12));
    EXPECT_FALSE(queue.remove(999));
    std::vector<BatchHandle> order;
    BatchHandle handle = 0;
    while (queue.next(handle))
        order.push_back(handle);
    EXPECT_EQ(order, (std::vector<BatchHandle>{11, 21}));
}

// ---------------------------------------------------------------
// Runner: merge callback + cooperative cancel
// ---------------------------------------------------------------

TEST(ServeRunner, MergeCallbackFiresInSubmissionOrderAtAnyJobs)
{
    registerAllWorkloads();
    ExperimentOptions opts;
    opts.size = SizeClass::Tiny;
    opts.runs = 1;
    std::vector<ExperimentPoint> points;
    for (TransferMode m : allTransferModes)
        points.push_back(ExperimentPoint{"saxpy", m, opts});

    for (unsigned jobs : {1u, 4u}) {
        std::vector<std::size_t> merged;
        RunPolicy policy;
        policy.onPointMerged =
            [&](std::size_t index, const PointOutcome &out) {
                merged.push_back(index);
                EXPECT_TRUE(out.ok);
            };
        ParallelRunner runner(SystemConfig::a100Epyc(), jobs);
        BatchResult batch = runner.runPoints(points, policy);
        EXPECT_TRUE(batch.allOk());
        ASSERT_EQ(merged.size(), points.size()) << "jobs " << jobs;
        for (std::size_t i = 0; i < merged.size(); ++i)
            EXPECT_EQ(merged[i], i) << "jobs " << jobs;
    }
}

TEST(ServeRunner, PreSetCancelFlagCancelsEveryPointWithoutJournal)
{
    registerAllWorkloads();
    ExperimentOptions opts;
    opts.size = SizeClass::Tiny;
    opts.runs = 1;
    std::vector<ExperimentPoint> points;
    for (TransferMode m : allTransferModes)
        points.push_back(ExperimentPoint{"saxpy", m, opts});

    std::string path = tmpDir("cancel_flag") + ".jsonl";
    ::unlink(path.c_str());
    std::atomic<bool> cancel{true};
    std::size_t mergedCancelled = 0;
    {
        std::unique_ptr<RunJournal> journal =
            RunJournal::create(path, points);
        RunPolicy policy;
        policy.journal = journal.get();
        policy.cancel = &cancel;
        policy.onPointMerged =
            [&](std::size_t, const PointOutcome &out) {
                if (out.status == PointStatus::Cancelled)
                    ++mergedCancelled;
            };
        ParallelRunner runner(SystemConfig::a100Epyc(), 4);
        BatchResult batch = runner.runPoints(points, policy);
        EXPECT_FALSE(batch.allOk());
        for (const PointOutcome &out : batch.points) {
            EXPECT_EQ(out.status, PointStatus::Cancelled);
            EXPECT_FALSE(out.ok);
            EXPECT_EQ(out.attempts, 0u);
        }
    }
    EXPECT_EQ(mergedCancelled, points.size());
    // Cancelled outcomes are merged but never journaled: the file
    // holds the header and nothing else — a clean resume source.
    std::vector<std::string> lines = splitLines(readFile(path));
    EXPECT_EQ(lines.size(), 1u);
    ::unlink(path.c_str());
}

// ---------------------------------------------------------------
// Daemon: the headline byte-identity guarantees
// ---------------------------------------------------------------

TEST(ServeDaemonTest, StreamIsByteIdenticalToCliJournalColdAndWarm)
{
    std::string state = tmpDir("equiv_state");
    std::string storeDir = tmpDir("equiv_store");
    removeTree(state);
    removeTree(storeDir);

    // Ground truth from the CLI path at --jobs 1; the daemon runs
    // at jobs 4 — equivalence across job counts included.
    std::string reference = referenceJournal(saxpyPayload(), 1);
    std::string expected = journalRecords(reference);
    ASSERT_FALSE(expected.empty());

    ServeOptions opt;
    opt.stateDir = state;
    opt.storeDir = storeDir;
    opt.jobs = 4;
    ServeDaemon daemon(opt);

    std::string error;
    BatchHandle cold = daemon.submit(1, saxpyPayload(), error);
    ASSERT_NE(cold, 0u) << error;
    BatchState finalState = BatchState::Pending;
    ASSERT_TRUE(waitTerminal(daemon, cold, finalState));
    EXPECT_EQ(finalState, BatchState::Done);

    StreamChunk chunk;
    ASSERT_TRUE(daemon.stream(cold, 0, chunk, error)) << error;
    EXPECT_TRUE(chunk.terminal);
    EXPECT_EQ(chunk.state, BatchState::Done);
    EXPECT_EQ(chunk.lines, expected);
    EXPECT_EQ(chunk.records, allTransferModes.size());

    // Identical batch again: warm — every point served by the
    // shared store, stream still byte-identical.
    BatchHandle warm = daemon.submit(2, saxpyPayload(), error);
    ASSERT_NE(warm, 0u) << error;
    ASSERT_TRUE(waitTerminal(daemon, warm, finalState));
    EXPECT_EQ(finalState, BatchState::Done);
    ASSERT_TRUE(daemon.stream(warm, 0, chunk, error)) << error;
    EXPECT_EQ(chunk.lines, expected);

    BatchStatus status;
    ASSERT_TRUE(daemon.status(warm, status, error)) << error;
    EXPECT_EQ(status.cached, allTransferModes.size());
    EXPECT_EQ(status.ok, allTransferModes.size());

    ServeStats stats = daemon.stats();
    EXPECT_GE(stats.storeHits, allTransferModes.size());
    EXPECT_EQ(stats.batchesCompleted, 2u);

    daemon.stop();
    removeTree(state);
    removeTree(storeDir);
}

TEST(ServeDaemonTest, StatusReportsPerPointSlugsAndProgress)
{
    std::string state = tmpDir("status_state");
    removeTree(state);
    ServeOptions opt;
    opt.stateDir = state;
    opt.jobs = 2;
    opt.paused = true;
    ServeDaemon daemon(opt);

    std::string error;
    BatchHandle handle = daemon.submit(1, saxpyPayload(), error);
    ASSERT_NE(handle, 0u) << error;

    BatchStatus status;
    ASSERT_TRUE(daemon.status(handle, status, error)) << error;
    EXPECT_EQ(status.state, BatchState::Pending);
    EXPECT_EQ(status.points, allTransferModes.size());
    EXPECT_EQ(status.merged, 0u);
    ASSERT_EQ(status.pointStatus.size(), allTransferModes.size());
    for (const std::string &slug : status.pointStatus)
        EXPECT_EQ(slug, "pending");

    daemon.resume();
    BatchState finalState = BatchState::Pending;
    ASSERT_TRUE(waitTerminal(daemon, handle, finalState));
    EXPECT_EQ(finalState, BatchState::Done);
    ASSERT_TRUE(daemon.status(handle, status, error)) << error;
    EXPECT_EQ(status.merged, status.points);
    EXPECT_EQ(status.ok, status.points);
    EXPECT_EQ(status.failed, 0u);
    for (const std::string &slug : status.pointStatus)
        EXPECT_EQ(slug, "ok");

    BatchStatus missing;
    EXPECT_FALSE(daemon.status(0xdead, missing, error));
    EXPECT_NE(error.find("unknown batch"), std::string::npos);

    daemon.stop();
    removeTree(state);
}

TEST(ServeDaemonTest, KillAtEveryRecordBoundaryResumesBitIdentical)
{
    // Simulate "the daemon was killed after k records were durable"
    // for every k — including before the journal existed at all —
    // by materializing exactly that state and restarting over it.
    std::string reference = referenceJournal(saxpyPayload(), 1);
    std::vector<std::string> refLines = splitLines(reference);
    ASSERT_EQ(refLines.size(), 1 + allTransferModes.size());
    std::string expected = journalRecords(reference);

    for (std::size_t k = 0; k <= allTransferModes.size() + 1; ++k) {
        std::string state = tmpDir("kill_state");
        removeTree(state);
        ASSERT_EQ(::mkdir(state.c_str(), 0777), 0);
        ASSERT_EQ(::mkdir((state + "/batches").c_str(), 0777), 0);
        std::string base = state + "/batches/" + hexU64(1);
        writeFile(base + ".kv", saxpyPayload());
        if (k > 0) {
            // k == 1: header only (killed before the first record);
            // k == n+1: header + k-1 records. k == 0 leaves no
            // journal at all (killed before the batch started).
            std::string partial;
            for (std::size_t i = 0; i < k && i < refLines.size();
                 ++i)
                partial += refLines[i];
            writeFile(base + ".jsonl", partial);
        }

        ServeOptions opt;
        opt.stateDir = state;
        opt.jobs = 4;
        ServeDaemon daemon(opt);
        EXPECT_EQ(daemon.stats().batchesRecovered, 1u)
            << "k = " << k;

        BatchState finalState = BatchState::Pending;
        ASSERT_TRUE(waitTerminal(daemon, 1, finalState))
            << "k = " << k;
        EXPECT_EQ(finalState, BatchState::Done) << "k = " << k;

        // The completed journal and the streamed records must be
        // byte-identical to the uninterrupted reference.
        EXPECT_EQ(readFile(base + ".jsonl"), reference)
            << "k = " << k;
        StreamChunk chunk;
        std::string error;
        ASSERT_TRUE(daemon.stream(1, 0, chunk, error)) << error;
        EXPECT_EQ(chunk.lines, expected) << "k = " << k;
        EXPECT_TRUE(chunk.terminal);

        // Restored points re-merge without re-simulating.
        if (k >= 2) {
            BatchStatus status;
            ASSERT_TRUE(daemon.status(1, status, error)) << error;
            EXPECT_EQ(status.restored, k - 1) << "k = " << k;
        }
        daemon.stop();
        removeTree(state);
    }
}

TEST(ServeDaemonTest, Version1BatchJournalIsDegradedAtRecovery)
{
    // A batch journal from before record checksums is refused, never
    // read: recovery streams nothing from it, and the batch parks
    // Degraded (the journal layer's fatal, caught by the daemon)
    // with its bytes left in place.
    std::string state = tmpDir("legacy_state");
    removeTree(state);
    ASSERT_EQ(::mkdir(state.c_str(), 0777), 0);
    ASSERT_EQ(::mkdir((state + "/batches").c_str(), 0777), 0);
    std::string base = state + "/batches/" + hexU64(1);
    writeFile(base + ".kv", saxpyPayload());
    std::string legacy;
    for (const LogRecord &rec :
         scanRecordLog(referenceJournal(saxpyPayload(), 1)).records)
        legacy += rec.payload + "\n";
    std::size_t version = legacy.find("\"version\":2");
    ASSERT_NE(version, std::string::npos);
    legacy[version + 10] = '1';
    writeFile(base + ".jsonl", legacy);

    ServeOptions opt;
    opt.stateDir = state;
    opt.jobs = 2;
    ServeDaemon daemon(opt);
    BatchState finalState = BatchState::Pending;
    ASSERT_TRUE(waitTerminal(daemon, 1, finalState));
    EXPECT_EQ(finalState, BatchState::Degraded);
    StreamChunk chunk;
    std::string error;
    ASSERT_TRUE(daemon.stream(1, 0, chunk, error)) << error;
    EXPECT_EQ(chunk.records, 0u);
    EXPECT_TRUE(chunk.lines.empty());
    EXPECT_EQ(readFile(base + ".jsonl"), legacy);
    daemon.stop();
    removeTree(state);
}

TEST(ServeDaemonTest, JournalWithoutACompleteLineIsRewrittenAndRuns)
{
    // An empty journal, or a torn header, is what a crash between
    // the journal's open and its header sync leaves. None of its
    // records can have been served, so the daemon rewrites it from
    // the payload and runs the batch.
    std::string reference = referenceJournal(saxpyPayload(), 1);
    std::string expected = journalRecords(reference);
    for (const std::string journal : {"", "{\"crc\":\"00"}) {
        std::string state = tmpDir("headerless_state");
        std::string base = batchState(state, saxpyPayload(), &journal);
        ServeOptions opt;
        opt.stateDir = state;
        opt.jobs = 2;
        ServeDaemon daemon(opt);
        BatchState finalState = BatchState::Pending;
        ASSERT_TRUE(waitTerminal(daemon, 1, finalState));
        EXPECT_EQ(finalState, BatchState::Done) << "'" << journal << "'";
        BatchStatus status;
        std::string error;
        ASSERT_TRUE(daemon.status(1, status, error)) << error;
        EXPECT_EQ(status.merged, allTransferModes.size());
        StreamChunk chunk;
        ASSERT_TRUE(daemon.stream(1, 0, chunk, error)) << error;
        EXPECT_EQ(chunk.lines, expected) << "'" << journal << "'";
        EXPECT_EQ(readFile(base + ".jsonl"), reference);
        daemon.stop();
        removeTree(state);
    }
}

TEST(ServeDaemonTest, JournalOfAnotherGridIsDegradedAndStreamsNothing)
{
    // A CLI journal written for gemv@tiny under a saxpy@tiny payload
    // is never served as this batch's results.
    std::string gemv = "batch.workload = gemv\n"
                       "batch.size = tiny\n"
                       "batch.runs = 2\n";
    std::string other = referenceJournal(gemv, 1);
    std::string state = tmpDir("other_grid_state");
    std::string base = batchState(state, saxpyPayload(), &other);
    {
        ServeOptions opt;
        opt.stateDir = state;
        opt.jobs = 2;
        ServeDaemon daemon(opt);
        BatchState finalState = BatchState::Pending;
        ASSERT_TRUE(waitTerminal(daemon, 1, finalState));
        EXPECT_EQ(finalState, BatchState::Degraded);
        StreamChunk chunk;
        std::string error;
        ASSERT_TRUE(daemon.stream(1, 0, chunk, error)) << error;
        EXPECT_EQ(chunk.records, 0u);
        EXPECT_TRUE(chunk.lines.empty());
        EXPECT_EQ(readFile(base + ".jsonl"), other);
        daemon.stop();
    }

    // Under the batch's own header, the stream stops at the first
    // record whose config hash is not its grid point's.
    std::vector<std::string> lines =
        splitLines(referenceJournal(saxpyPayload(), 1));
    std::vector<std::string> otherLines = splitLines(other);
    std::string mixed = lines[0] + lines[1] + otherLines[2] + lines[3];
    base = batchState(state, saxpyPayload(), &mixed);
    ServeOptions opt;
    opt.stateDir = state;
    opt.jobs = 2;
    ServeDaemon daemon(opt);
    BatchState finalState = BatchState::Pending;
    ASSERT_TRUE(waitTerminal(daemon, 1, finalState));
    EXPECT_EQ(finalState, BatchState::Degraded);
    StreamChunk chunk;
    std::string error;
    ASSERT_TRUE(daemon.stream(1, 0, chunk, error)) << error;
    EXPECT_EQ(chunk.records, 1u);
    EXPECT_EQ(chunk.lines, journalRecords(lines[0] + lines[1]));
    daemon.stop();
    removeTree(state);
}

/** What one reader's policy does with a journal (DESIGN §16.3). */
enum class Policy
{
    Clean,    //!< fsck: no finding; resume: reads it as it is
    Note,     //!< fsck: a note only (exit 0)
    Damage,   //!< fsck: damage (exit 1)
    Refuse,   //!< resume fatals; the daemon parks the batch degraded
    Truncate, //!< cut back to the good records, then run the rest
    Rewrite,  //!< created anew from the payload, then run
};

const char *
policyName(Policy policy)
{
    switch (policy) {
      case Policy::Clean: return "clean";
      case Policy::Note: return "note";
      case Policy::Damage: return "damage";
      case Policy::Refuse: return "refuse";
      case Policy::Truncate: return "truncate";
      case Policy::Rewrite: return "rewrite";
    }
    return "?";
}

/** The worst finding of one fsck walk, as a Policy. */
Policy
fsckPolicy(const FsckReport &report)
{
    Policy worst = Policy::Clean;
    for (const FsckFinding &finding : report.findings) {
        if (finding.severity != FsckSeverity::Note)
            return Policy::Damage;
        worst = Policy::Note;
    }
    return worst;
}

TEST(JournalPolicy, FsckResumeAndRecoveryAgreeOnEveryDefect)
{
    std::string reference = referenceJournal(saxpyPayload(), 1);
    std::vector<std::string> lines = splitLines(reference);
    ASSERT_EQ(lines.size(), 1 + allTransferModes.size());
    std::string legacy;
    for (const LogRecord &rec : scanRecordLog(reference).records)
        legacy += rec.payload + "\n";
    legacy[legacy.find("\"version\":2") + 10] = '1';
    std::string garbled = reference;
    garbled[garbled.find("\"points\"") + 1] = 'q';
    std::string corrupt = reference;
    corrupt[corrupt.find("\"status\"", lines[0].size() +
                                          lines[1].size()) + 1] = 't';
    std::string outside = lines[1].substr(0, lines[1].size() - 2);
    std::size_t rec = outside.find("\"rec\":") + 6;
    outside = outside.substr(rec);
    outside.replace(0, std::string("{\"point\":0").size(), "{\"point\":9");
    std::string gemv = "batch.workload = gemv\n"
                       "batch.size = tiny\n"
                       "batch.runs = 2\n";

    struct Defect
    {
        const char *name;
        std::string journal;
        Policy fsckStandalone, fsckBatch, resume, daemon;
    };
    const std::vector<Defect> table = {
        {"empty", "", Policy::Damage, Policy::Note, Policy::Refuse,
         Policy::Rewrite},
        {"torn header", "{\"crc\":\"00", Policy::Damage, Policy::Note,
         Policy::Refuse, Policy::Rewrite},
        {"version 1", legacy, Policy::Damage, Policy::Damage,
         Policy::Refuse, Policy::Refuse},
        {"garbled header", garbled, Policy::Damage, Policy::Damage,
         Policy::Refuse, Policy::Refuse},
        {"other campaign", referenceJournal(gemv, 1), Policy::Clean,
         Policy::Damage, Policy::Refuse, Policy::Refuse},
        {"corrupt record mid-file", corrupt, Policy::Damage,
         Policy::Damage, Policy::Refuse, Policy::Refuse},
        {"index outside the grid",
         lines[0] + frameRecord(outside) + lines[2], Policy::Damage,
         Policy::Damage, Policy::Refuse, Policy::Refuse},
        {"torn tail",
         lines[0] + lines[1] + lines[2] +
             lines[3].substr(0, lines[3].size() / 2),
         Policy::Damage, Policy::Damage, Policy::Truncate,
         Policy::Truncate},
    };

    BatchSpec spec;
    std::string error;
    ASSERT_TRUE(parseBatchSpec(saxpyPayload(), spec, error)) << error;
    std::vector<ExperimentPoint> points = batchSpecPoints(spec);
    std::string state = tmpDir("policy_state");
    std::string file = tmpDir("policy.jsonl");
    for (const Defect &defect : table) {
        SCOPED_TRACE(defect.name);

        writeFile(file, defect.journal);
        EXPECT_STREQ(policyName(fsckPolicy(fsckPath(file))),
                     policyName(defect.fsckStandalone));

        Policy resume = Policy::Clean;
        try {
            FatalThrowScope guard;
            RunJournal::resume(file, points);
            if (readFile(file) != defect.journal)
                resume = Policy::Truncate;
        } catch (const FatalError &) {
            resume = Policy::Refuse;
        }
        EXPECT_STREQ(policyName(resume), policyName(defect.resume));

        std::string base =
            batchState(state, saxpyPayload(), &defect.journal);
        EXPECT_STREQ(policyName(fsckPolicy(fsckPath(state))),
                     policyName(defect.fsckBatch));

        ServeOptions opt;
        opt.stateDir = state;
        opt.jobs = 2;
        ServeDaemon daemon(opt);
        BatchState finalState = BatchState::Pending;
        ASSERT_TRUE(waitTerminal(daemon, 1, finalState));
        BatchStatus status;
        ASSERT_TRUE(daemon.status(1, status, error)) << error;
        std::string after = readFile(base + ".jsonl");
        Policy recovery = Policy::Clean;
        if (finalState == BatchState::Degraded && after == defect.journal)
            recovery = Policy::Refuse;
        else if (finalState == BatchState::Done && after == reference)
            recovery =
                status.restored > 0 ? Policy::Truncate : Policy::Rewrite;
        EXPECT_STREQ(policyName(recovery), policyName(defect.daemon));
        daemon.stop();
    }
    ::unlink(file.c_str());
    removeTree(state);
}

TEST(ServeDaemonTest, RestartResumesPendingSubmissionsInOrder)
{
    std::string state = tmpDir("pending_state");
    removeTree(state);
    std::string gemv = "batch.workload = gemv\n"
                       "batch.size = tiny\n"
                       "batch.runs = 2\n";
    std::string expectedSaxpy =
        journalRecords(referenceJournal(saxpyPayload(), 1));
    std::string expectedGemv =
        journalRecords(referenceJournal(gemv, 1));

    BatchHandle first = 0;
    BatchHandle second = 0;
    {
        // Paused daemon: both batches are accepted and persisted
        // but never run — the "killed before the scheduler got
        // there" shape.
        ServeOptions opt;
        opt.stateDir = state;
        opt.paused = true;
        ServeDaemon daemon(opt);
        std::string error;
        first = daemon.submit(1, saxpyPayload(), error);
        ASSERT_NE(first, 0u) << error;
        second = daemon.submit(2, gemv, error);
        ASSERT_NE(second, 0u) << error;
        daemon.stop();
    }

    ServeOptions opt;
    opt.stateDir = state;
    opt.jobs = 2;
    ServeDaemon daemon(opt);
    EXPECT_EQ(daemon.stats().batchesRecovered, 2u);

    BatchState finalState = BatchState::Pending;
    ASSERT_TRUE(waitTerminal(daemon, first, finalState));
    EXPECT_EQ(finalState, BatchState::Done);
    ASSERT_TRUE(waitTerminal(daemon, second, finalState));
    EXPECT_EQ(finalState, BatchState::Done);

    StreamChunk chunk;
    std::string error;
    ASSERT_TRUE(daemon.stream(first, 0, chunk, error)) << error;
    EXPECT_EQ(chunk.lines, expectedSaxpy);
    ASSERT_TRUE(daemon.stream(second, 0, chunk, error)) << error;
    EXPECT_EQ(chunk.lines, expectedGemv);

    // Handle continuity: a post-restart submission extends the
    // persisted sequence instead of colliding with it.
    BatchHandle third = daemon.submit(1, saxpyPayload(), error);
    EXPECT_EQ(third, second + 1);

    daemon.stop();
    removeTree(state);
}

TEST(ServeDaemonTest, RestartServesCompletedBatchWithoutRerunning)
{
    std::string state = tmpDir("completed_state");
    removeTree(state);
    {
        ServeOptions opt;
        opt.stateDir = state;
        opt.jobs = 2;
        ServeDaemon daemon(opt);
        std::string error;
        BatchHandle handle = daemon.submit(1, saxpyPayload(), error);
        ASSERT_NE(handle, 0u) << error;
        BatchState finalState = BatchState::Pending;
        ASSERT_TRUE(waitTerminal(daemon, handle, finalState));
        ASSERT_EQ(finalState, BatchState::Done);
        daemon.stop();
    }

    ServeOptions opt;
    opt.stateDir = state;
    ServeDaemon daemon(opt);
    BatchStatus status;
    std::string error;
    ASSERT_TRUE(daemon.status(1, status, error)) << error;
    EXPECT_EQ(status.state, BatchState::Done);
    EXPECT_EQ(status.merged, allTransferModes.size());
    for (const std::string &slug : status.pointStatus)
        EXPECT_EQ(slug, "ok");
    // Nothing ran in this process: the journal alone proves the
    // batch done.
    EXPECT_EQ(daemon.stats().pointsMerged, 0u);
    StreamChunk chunk;
    ASSERT_TRUE(daemon.stream(1, 0, chunk, error)) << error;
    EXPECT_TRUE(chunk.terminal);
    EXPECT_EQ(chunk.records, allTransferModes.size());

    daemon.stop();
    removeTree(state);
}

TEST(ServeDaemonTest, CancelledPendingBatchNeverRunsAndStaysCancelled)
{
    std::string state = tmpDir("cancel_state");
    removeTree(state);
    BatchHandle cancelled = 0;
    BatchHandle witness = 0;
    {
        ServeOptions opt;
        opt.stateDir = state;
        opt.paused = true;
        ServeDaemon daemon(opt);
        std::string error;
        cancelled = daemon.submit(1, saxpyPayload(), error);
        ASSERT_NE(cancelled, 0u) << error;
        witness = daemon.submit(2,
                                "batch.workload = gemv\n"
                                "batch.size = tiny\n"
                                "batch.runs = 2\n",
                                error);
        ASSERT_NE(witness, 0u) << error;

        BatchState result = BatchState::Pending;
        ASSERT_TRUE(daemon.cancel(cancelled, result, error))
            << error;
        EXPECT_EQ(result, BatchState::Cancelled);

        // Open the gate: the witness batch runs to completion, so
        // the scheduler demonstrably passed over the cancelled one.
        daemon.resume();
        BatchState finalState = BatchState::Pending;
        ASSERT_TRUE(waitTerminal(daemon, witness, finalState));
        EXPECT_EQ(finalState, BatchState::Done);

        BatchStatus status;
        ASSERT_TRUE(daemon.status(cancelled, status, error));
        EXPECT_EQ(status.state, BatchState::Cancelled);
        EXPECT_EQ(status.merged, 0u);
        // Never ran: no journal was ever created for it.
        EXPECT_FALSE(fileExists(state + "/batches/" +
                                hexU64(cancelled) + ".jsonl"));

        // Cancelling a terminal batch is a no-op.
        ASSERT_TRUE(daemon.cancel(witness, result, error));
        EXPECT_EQ(result, BatchState::Done);
        daemon.stop();
    }

    // The cancellation marker survives restart: recovery must not
    // resurrect the batch.
    ServeOptions opt;
    opt.stateDir = state;
    opt.paused = true;
    ServeDaemon daemon(opt);
    BatchStatus status;
    std::string error;
    ASSERT_TRUE(daemon.status(cancelled, status, error)) << error;
    EXPECT_EQ(status.state, BatchState::Cancelled);
    StreamChunk chunk;
    ASSERT_TRUE(daemon.stream(cancelled, 0, chunk, error)) << error;
    EXPECT_TRUE(chunk.terminal);
    EXPECT_EQ(chunk.state, BatchState::Cancelled);
    EXPECT_TRUE(chunk.lines.empty());
    daemon.stop();
    removeTree(state);
}

TEST(ServeDaemonTest, SubmitRejectionsDoNotBurnTheDaemon)
{
    std::string state = tmpDir("reject_state");
    removeTree(state);
    ServeOptions opt;
    opt.stateDir = state;
    opt.paused = true;
    ServeDaemon daemon(opt);

    std::string error;
    EXPECT_EQ(daemon.submit(1, "batch.workload = nope\n", error),
              0u);
    EXPECT_NE(error.find("unknown workload"), std::string::npos);
    EXPECT_EQ(daemon.submit(1, "garbage ][ text\n", error), 0u);
    EXPECT_FALSE(error.empty());

    // The daemon still accepts good batches afterwards.
    BatchHandle handle = daemon.submit(1, saxpyPayload(), error);
    EXPECT_NE(handle, 0u) << error;
    daemon.stop();
    removeTree(state);
}

// ---------------------------------------------------------------
// Preflight (death tests)
// ---------------------------------------------------------------

TEST(ServePreflight, UnwritableStateDirDiesAtStartup)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A path under a regular file cannot be created by anyone —
    // including root, which container CI runs as (a chmod 0500
    // directory would not stop root).
    std::string file = tmpDir("preflight_file");
    writeFile(file, "not a directory\n");
    std::string impossible = file + "/state";
    EXPECT_DEATH(preflightServeStateDir(impossible),
                 "cannot create state directory");
    EXPECT_DEATH(preflightServeStateDir(""),
                 "state directory is required");
    ::unlink(file.c_str());
}

TEST(ServePreflight, UnbindableSocketDiesAtStartup)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::string state = tmpDir("sock_preflight");
    removeTree(state);
    EXPECT_DEATH(
        {
            ServeOptions opt;
            opt.stateDir = state;
            opt.paused = true;
            ServeDaemon daemon(opt);
            std::string longPath(200, 'a');
            ServeSocketServer server(daemon, "/tmp/" + longPath);
        },
        "AF_UNIX limit");
    removeTree(state);
}

// ---------------------------------------------------------------
// Socket front end: concurrent clients end to end
// ---------------------------------------------------------------

struct ServerFixture
{
    explicit ServerFixture(const ServeOptions &opt)
        : daemon(opt),
          socketPath(::testing::TempDir() + "uvmasync_serve_" +
                     std::to_string(::getpid()) + ".sock"),
          server(daemon, socketPath),
          thread([this] { server.run(); })
    {
    }

    ~ServerFixture()
    {
        server.requestStop();
        thread.join();
        daemon.stop();
    }

    ServeDaemon daemon;
    std::string socketPath;
    ServeSocketServer server;
    std::thread thread;
};

TEST(ServeSocket, ConcurrentClientsEachGetTheirExactStream)
{
    std::string state = tmpDir("socket_state");
    std::string storeDir = tmpDir("socket_store");
    removeTree(state);
    removeTree(storeDir);

    std::vector<std::string> payloads = {
        saxpyPayload(42),
        "batch.workload = gemv\nbatch.size = tiny\nbatch.runs = "
        "2\n",
        saxpyPayload(7),
    };
    std::vector<std::string> expected;
    for (const std::string &payload : payloads)
        expected.push_back(
            journalRecords(referenceJournal(payload, 1)));

    ServeOptions opt;
    opt.stateDir = state;
    opt.storeDir = storeDir;
    opt.jobs = 2;
    ServerFixture fixture(opt);

    std::vector<std::string> streamed(payloads.size());
    std::vector<std::string> finalStates(payloads.size());
    std::vector<std::string> errors(payloads.size());
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        clients.emplace_back([&, i] {
            ServeClient client;
            std::string error;
            if (!client.connect(fixture.socketPath, error)) {
                errors[i] = error;
                return;
            }
            std::string handle;
            if (!client.submit(payloads[i], handle, error)) {
                errors[i] = error;
                return;
            }
            if (!client.stream(handle, 0, true, streamed[i],
                               finalStates[i], error))
                errors[i] = error;
        });
    }
    for (std::thread &t : clients)
        t.join();

    for (std::size_t i = 0; i < payloads.size(); ++i) {
        EXPECT_TRUE(errors[i].empty()) << errors[i];
        EXPECT_EQ(finalStates[i], "done") << "client " << i;
        EXPECT_EQ(streamed[i], expected[i]) << "client " << i;
    }

    // Stats flow end to end.
    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.socketPath, error)) << error;
    std::string stats;
    ASSERT_TRUE(client.stats(stats, error)) << error;
    EXPECT_NE(stats.find("batches.submitted = 3"),
              std::string::npos)
        << stats;
    EXPECT_NE(stats.find("batches.completed = 3"),
              std::string::npos)
        << stats;

    removeTree(state);
    removeTree(storeDir);
}

TEST(ServeSocket, BadRequestsGetActionableErrorFrames)
{
    std::string state = tmpDir("socket_err_state");
    removeTree(state);
    ServeOptions opt;
    opt.stateDir = state;
    opt.paused = true;
    ServerFixture fixture(opt);

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.socketPath, error)) << error;

    std::string handle;
    EXPECT_FALSE(
        client.submit("batch.workload = nope\n", handle, error));
    EXPECT_NE(error.find("unknown workload"), std::string::npos)
        << error;

    std::string reply;
    EXPECT_FALSE(client.status("ffffffffffffffff", reply, error));
    EXPECT_NE(error.find("unknown batch"), std::string::npos);

    EXPECT_FALSE(client.status("zzz", reply, error));
    EXPECT_NE(error.find("malformed batch handle"),
              std::string::npos);

    std::string lines;
    std::string finalState;
    EXPECT_FALSE(client.stream("0000000000000099", 0, false, lines,
                               finalState, error));
    EXPECT_NE(error.find("unknown batch"), std::string::npos);

    // The connection survives request errors: a good request still
    // works on the same socket.
    std::string stats;
    EXPECT_TRUE(client.stats(stats, error)) << error;

    removeTree(state);
}

/** Raw client connect for tests that drive the wire directly. */
int
rawConnect(const std::string &socketPath)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socketPath.c_str(),
                socketPath.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

TEST(ServeSocket, MalformedRequestPayloadsOnlyFailThatRequest)
{
    std::string state = tmpDir("socket_malformed_state");
    removeTree(state);
    ServeOptions opt;
    opt.stateDir = state;
    opt.paused = true;
    ServerFixture fixture(opt);

    // ServeClient always writes well-formed payloads, so drive the
    // wire directly. Every payload below makes the KV parser or a
    // typed getter fatal(); the daemon must trap each one into an
    // Error frame — a garbled request from one client must never
    // exit the process under every other client.
    int fd = rawConnect(fixture.socketPath);
    ASSERT_GE(fd, 0);
    const char *bad[][2] = {
        // KV line with no '=' on each request type that parses.
        {"status", nullptr},
        {"cancel", nullptr},
        {"stream", nullptr},
        {"submit", nullptr},
        // Typed-getter failures on the stream request.
        {"batch = 0000000000000001\nfrom = abc\n", "stream"},
        {"batch = 0000000000000001\nwait = banana\n", "stream"},
        {"batch = 0000000000000001\nfrom = -3\n", "stream"},
    };
    std::string error;
    for (const auto &entry : bad) {
        FrameType type = FrameType::Status;
        std::string payload;
        if (entry[1] == nullptr) {
            payload = "this line has no equals sign\n";
            std::string slug = entry[0];
            type = slug == "status"   ? FrameType::Status
                   : slug == "cancel" ? FrameType::Cancel
                   : slug == "stream" ? FrameType::Stream
                                      : FrameType::Submit;
        } else {
            payload = entry[0];
            type = FrameType::Stream;
        }
        ASSERT_TRUE(writeFrame(fd, type, payload, error)) << error;
        Frame reply;
        ASSERT_TRUE(readFrame(fd, reply, error))
            << error << " (" << payload << ")";
        EXPECT_EQ(reply.type, FrameType::Error) << payload;
        EXPECT_FALSE(reply.payload.empty()) << payload;
    }
    // A reply frame is no request: refused by name.
    {
        ASSERT_TRUE(writeFrame(fd, FrameType::StatsOk, "", error))
            << error;
        Frame reply;
        ASSERT_TRUE(readFrame(fd, reply, error)) << error;
        EXPECT_EQ(reply.type, FrameType::Error);
        EXPECT_NE(reply.payload.find("unexpected frame type"),
                  std::string::npos)
            << reply.payload;
    }

    // The connection survived every bad request, and so did the
    // daemon: a good request still works on the same socket.
    ASSERT_TRUE(writeFrame(fd, FrameType::Stats, "", error))
        << error;
    Frame reply;
    ASSERT_TRUE(readFrame(fd, reply, error)) << error;
    EXPECT_EQ(reply.type, FrameType::StatsOk);
    ::close(fd);

    removeTree(state);
}

TEST(ServeSocket, SlowReaderDoesNotStallOtherClients)
{
    std::string state = tmpDir("socket_slowreader_state");
    removeTree(state);
    ServeOptions opt;
    opt.stateDir = state;
    opt.paused = true;
    ServerFixture fixture(opt);

    // Client A pipelines a flood of Stats requests without reading a
    // single reply: the replies overflow the kernel socket buffer
    // and must queue in the server's per-connection outbound buffer
    // instead of wedging the poll loop in a blocking send().
    constexpr int floodRequests = 4000;
    int fd = rawConnect(fixture.socketPath);
    ASSERT_GE(fd, 0);
    std::string burst;
    for (int i = 0; i < floodRequests; ++i)
        burst += encodeFrame(FrameType::Stats, "");
    std::size_t sent = 0;
    while (sent < burst.size()) {
        ssize_t n = ::send(fd, burst.data() + sent,
                           burst.size() - sent, MSG_NOSIGNAL);
        ASSERT_GT(n, 0);
        sent += static_cast<std::size_t>(n);
    }

    // Client B is served while A has not read a byte. With the old
    // blocking sends this deadlocked the whole server.
    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.socketPath, error)) << error;
    std::string stats;
    ASSERT_TRUE(client.stats(stats, error)) << error;

    // A's replies all arrive intact once it finally reads.
    for (int i = 0; i < floodRequests; ++i) {
        Frame reply;
        ASSERT_TRUE(readFrame(fd, reply, error))
            << error << " reply " << i;
        ASSERT_EQ(reply.type, FrameType::StatsOk) << "reply " << i;
    }
    ::close(fd);

    removeTree(state);
}

TEST(ServeSocket, GarbageBytesDropOnlyTheOffendingConnection)
{
    std::string state = tmpDir("socket_garbage_state");
    removeTree(state);
    ServeOptions opt;
    opt.stateDir = state;
    opt.paused = true;
    ServerFixture fixture(opt);

    // Raw connection speaking garbage: gets an Error frame (or a
    // plain close) and is dropped.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, fixture.socketPath.c_str(),
                fixture.socketPath.size() + 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const unsigned char garbage[] = {0xff, 0xff, 0xff, 0xff, 0xff};
    ASSERT_EQ(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(garbage)));
    // Whatever the server sends, the connection must end.
    char drain[256];
    while (::recv(fd, drain, sizeof(drain), 0) > 0) {
    }
    ::close(fd);

    // A well-behaved client on a fresh connection is unaffected.
    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(fixture.socketPath, error)) << error;
    std::string stats;
    EXPECT_TRUE(client.stats(stats, error)) << error;

    removeTree(state);
}

TEST(ServeSocket, ShutdownFrameStopsTheServer)
{
    std::string state = tmpDir("socket_shutdown_state");
    removeTree(state);
    ServeOptions opt;
    opt.stateDir = state;
    opt.paused = true;

    ServeDaemon daemon(opt);
    std::string socketPath = ::testing::TempDir() +
                             "uvmasync_serve_shutdown_" +
                             std::to_string(::getpid()) + ".sock";
    ServeSocketServer server(daemon, socketPath);
    std::thread thread([&] { server.run(); });

    ServeClient client;
    std::string error;
    ASSERT_TRUE(client.connect(socketPath, error)) << error;
    ASSERT_TRUE(client.shutdown(error)) << error;
    thread.join(); // run() returned because of the frame
    daemon.stop();
    removeTree(state);
}

} // namespace
} // namespace uvmasync
