/**
 * @file
 * Crash-consistency enumeration over the durable-state stack: a
 * counting pass under an inert FaultyIoEnv discovers every
 * fault-eligible I/O operation a workload performs, then one run per
 * operation index fails exactly that operation and asserts the
 * recovery invariants — nothing fatals during unwinding, no torn
 * record is ever served, failed writes degrade (never kill) the run,
 * and a post-recovery rerun is byte-identical to a never-faulted
 * run. Plus the ENOSPC battery, fsync-failure degradation, the
 * power-cut mode, and a death test pinning the no-std::terminate
 * contract for destructors that run while a FatalError unwinds.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
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
#include "faulty_env.hh"
#include "io/io_env.hh"
#include "io/record_log.hh"
#include "journal/journal.hh"
#include "journal/json.hh"
#include "serve/batch_spec.hh"
#include "serve/daemon.hh"
#include "store/result_store.hh"
#include "workloads/registry.hh"
#include "grid.hh"

namespace uvmasync
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "uvmasync_iofault_" + name;
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

/** Deterministic synthetic result for point @p i of @p point. */
ExperimentResult
makeResult(const ExperimentPoint &point, std::size_t i)
{
    ExperimentResult r;
    r.workload = point.workload;
    r.mode = point.mode;
    r.size = point.opts.size;
    r.clean.allocPs = 1000.0 + static_cast<double>(i);
    r.clean.transferPs = 2000.0 + static_cast<double>(i) / 3.0;
    r.clean.kernelPs = 3000.0 + static_cast<double>(i) * 7.0;
    TimeBreakdown run;
    run.allocPs = r.clean.allocPs * 1.25;
    run.transferPs = r.clean.transferPs * 0.75;
    run.kernelPs = r.clean.kernelPs;
    r.runs.push_back(run);
    r.counters.faults = 10 + i;
    r.counters.bytesH2d = 4096 * (i + 1);
    r.counters.bytesD2h = 2048 * (i + 1);
    r.counters.launches = 3;
    r.counters.occupancy = 0.5 + static_cast<double>(i % 4) / 8.0;
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

/** 2 workloads x 5 modes x 3 trials: enough commits for the floor. */
std::vector<ExperimentPoint>
journalGrid()
{
    ExperimentOptions base;
    base.size = SizeClass::Tiny;
    base.runs = 2;
    base.baseSeed = 42;
    std::vector<TransferMode> modes(allTransferModes.begin(),
                                    allTransferModes.end());
    return expandGrid({"saxpy", "vector_seq"}, modes,
                                      3, base);
}

// ---------------------------------------------------------------------------
// Journal workload: create + commit every point. Synthetic outcomes
// keep one enumerator step at microseconds, so failing each of the
// ~60 ops in turn stays cheap.
// ---------------------------------------------------------------------------

/** Run the journal workload; false when creation itself fataled. */
bool
runJournalWorkload(IoEnv &env, const std::string &path)
{
    std::vector<ExperimentPoint> grid = journalGrid();
    FatalThrowScope scope;
    try {
        std::unique_ptr<RunJournal> journal =
            RunJournal::create(path, grid, env);
        for (std::size_t i = 0; i < grid.size(); ++i) {
            PointOutcome out = makeOutcome(grid[i], i);
            journal->commit(i, out); // a refusal degrades, only
        }
    } catch (const FatalError &) {
        return false;
    }
    return true;
}

/**
 * What a CLI user does after a crash: resume if the file is usable,
 * start over if not, then fill in whatever is missing. Returns the
 * final journal bytes.
 */
std::string
recoverJournal(const std::string &path)
{
    std::vector<ExperimentPoint> grid = journalGrid();
    IoEnv &real = realIoEnv();
    std::unique_ptr<RunJournal> journal;
    {
        FatalThrowScope scope;
        try {
            journal = real.exists(path)
                          ? RunJournal::resume(path, grid)
                          : RunJournal::create(path, grid);
        } catch (const FatalError &) {
            real.removeFile(path);
            journal = RunJournal::create(path, grid);
        }
    }
    for (std::size_t i = 0; i < grid.size(); ++i) {
        PointOutcome restored;
        if (journal->restore(i, restored))
            continue;
        PointOutcome out = makeOutcome(grid[i], i);
        EXPECT_TRUE(journal->commit(i, out)) << path << " point " << i;
    }
    journal.reset();
    return readFileOr(path);
}

// ---------------------------------------------------------------------------
// Store workload: open, insert a key set spanning several shards
// (with same-shard collisions), look one up, close (meta rewrite).
// ---------------------------------------------------------------------------

constexpr std::uint64_t storeFp = 0x1234abcd5678ef90ull;

std::vector<std::uint64_t>
storeKeys()
{
    // Low byte picks the shard: three shards, repeats interleaved so
    // a mid-run fault splits a shard's records across sessions.
    return {0x01,  0x42,  0x99,  0x101, 0x142, 0x199,
            0x201, 0x242, 0x299, 0x301};
}

bool
runStoreWorkload(IoEnv &env, const std::string &dir)
{
    std::vector<ExperimentPoint> grid = journalGrid();
    FatalThrowScope scope;
    try {
        std::unique_ptr<ResultStore> store =
            ResultStore::open(dir, storeFp, StoreOptions{}, env);
        std::size_t i = 0;
        for (std::uint64_t key : storeKeys()) {
            store->insert(key, makeResult(grid[i % grid.size()], i));
            ++i;
        }
        ExperimentResult out;
        store->lookup(storeKeys().front(), out);
        store.reset(); // atomic meta rewrite
    } catch (const FatalError &) {
        return false;
    }
    return true;
}

/**
 * Canonical store output: every segment file's name + bytes, in
 * sorted name order. meta.json is deliberately excluded — its clock
 * and lifetime counters legitimately differ between a one-session
 * and a two-session (crash + recovery) history.
 */
std::string
canonicalStoreBytes(const std::string &dir)
{
    std::vector<std::string> names;
    realIoEnv().listDir(dir + "/shards", names);
    std::string out;
    for (const std::string &name : names) {
        out += name;
        out += '\0';
        out += readFileOr(dir + "/shards/" + name);
        out += '\0';
    }
    return out;
}

/** Reopen with the real env, refill, and demand a clean survey. */
std::string
recoverStore(const std::string &dir)
{
    std::vector<ExperimentPoint> grid = journalGrid();
    {
        std::unique_ptr<ResultStore> store =
            ResultStore::open(dir, storeFp);
        std::size_t i = 0;
        for (std::uint64_t key : storeKeys()) {
            store->insert(key, makeResult(grid[i % grid.size()], i));
            ++i;
        }
    }
    StoreSurvey survey = surveyStore(dir);
    EXPECT_TRUE(survey.clean())
        << dir << ": " << survey.metaError << " corrupt="
        << survey.corruptRecords << " torn=" << survey.tornTails
        << " badHeaders=" << survey.badHeaders;
    EXPECT_EQ(survey.records, storeKeys().size());
    return canonicalStoreBytes(dir);
}

// ---------------------------------------------------------------------------
// Daemon workload: construct (preflight + recovery), submit three
// batches, cancel the first, stop. Paused, so no simulation runs and
// every I/O op belongs to the durable-state protocol itself.
// ---------------------------------------------------------------------------

std::vector<std::string>
daemonPayloads()
{
    std::vector<std::string> payloads;
    for (int seed : {7, 8, 9}) {
        payloads.push_back("batch.workload = saxpy\n"
                           "batch.size = tiny\n"
                           "batch.runs = 2\n"
                           "batch.seed = " +
                           std::to_string(seed) + "\n");
    }
    return payloads;
}

struct DaemonRun {
    bool constructed = false;
    std::vector<BatchHandle> acked;
    std::vector<std::string> ackedPayloads;
    ServeStats stats;
};

DaemonRun
runDaemonWorkload(IoEnv &env, const std::string &stateDir)
{
    DaemonRun out;
    ServeOptions opt;
    opt.stateDir = stateDir;
    opt.jobs = 1;
    opt.paused = true;
    opt.io = &env;
    FatalThrowScope scope;
    try {
        ServeDaemon daemon(opt);
        out.constructed = true;
        for (const std::string &payload : daemonPayloads()) {
            std::string error;
            BatchHandle handle = daemon.submit(1, payload, error);
            if (handle != 0) {
                EXPECT_TRUE(error.empty());
                out.acked.push_back(handle);
                out.ackedPayloads.push_back(payload);
            } else {
                EXPECT_FALSE(error.empty());
            }
        }
        if (!out.acked.empty()) {
            BatchState state;
            std::string error;
            daemon.cancel(out.acked.front(), state, error);
        }
        out.stats = daemon.stats();
        daemon.stop();
    } catch (const FatalError &) {
        out.constructed = false;
    }
    return out;
}

/**
 * Restart on the real filesystem and assert the serve invariants:
 * the recovery daemon never fatals, every acked handle is visible
 * again with byte-identical payload, and no batch is in a state a
 * torn write could explain away.
 */
void
verifyDaemonRecovery(const std::string &stateDir, const DaemonRun &run)
{
    ServeOptions opt;
    opt.stateDir = stateDir;
    opt.jobs = 1;
    opt.paused = true;
    std::unique_ptr<ServeDaemon> daemon;
    {
        FatalThrowScope scope;
        try {
            daemon = std::make_unique<ServeDaemon>(opt);
        } catch (const FatalError &err) {
            FAIL() << "recovery daemon fataled: " << err.what();
        }
    }
    for (std::size_t i = 0; i < run.acked.size(); ++i) {
        BatchHandle handle = run.acked[i];
        BatchStatus status;
        std::string error;
        ASSERT_TRUE(daemon->status(handle, status, error)) << error;
        EXPECT_TRUE(status.state == BatchState::Pending ||
                    status.state == BatchState::Cancelled)
            << batchStateName(status.state);
        std::string payload = readFileOr(stateDir + "/batches/" +
                                         hexU64(handle) + ".kv");
        EXPECT_EQ(payload, run.ackedPayloads[i])
            << "handle " << hexU64(handle);
    }
    // Survivors of failed submits may be parked, but never crash the
    // daemon and never reach a runnable state with torn bytes.
    BatchListing listing;
    ASSERT_TRUE(
        listBatchFiles(realIoEnv(), stateDir + "/batches", listing).ok);
    for (const auto &[handle, files] : listing.batches) {
        BatchStatus status;
        std::string error;
        ASSERT_TRUE(daemon->status(handle, status, error));
        EXPECT_TRUE(status.state == BatchState::Pending ||
                    status.state == BatchState::Cancelled ||
                    status.state == BatchState::Degraded)
            << batchStateName(status.state);
    }
    daemon->stop();
}

} // namespace

// ---------------------------------------------------------------------------
// The enumerator.
// ---------------------------------------------------------------------------

TEST(IoFaultEnumeration, EveryFaultPointRecoversByteIdentical)
{
    registerAllWorkloads();

    // Never-faulted baselines.
    std::string journalBase = tmpPath("enum_journal_base.jsonl");
    std::remove(journalBase.c_str());
    ASSERT_TRUE(runJournalWorkload(realIoEnv(), journalBase));
    std::string journalRef = readFileOr(journalBase);
    ASSERT_FALSE(journalRef.empty());

    std::string storeBase = tmpPath("enum_store_base");
    removeTree(storeBase);
    ASSERT_TRUE(runStoreWorkload(realIoEnv(), storeBase));
    std::string storeRef = canonicalStoreBytes(storeBase);
    ASSERT_FALSE(storeRef.empty());

    // Counting passes: an inert plan injects nothing and only counts.
    IoFaultPlan inert;
    std::string countJournal = tmpPath("enum_journal_count.jsonl");
    std::remove(countJournal.c_str());
    FaultyIoEnv journalCounter(inert);
    ASSERT_TRUE(runJournalWorkload(journalCounter, countJournal));
    EXPECT_EQ(readFileOr(countJournal), journalRef)
        << "inert FaultyIoEnv must be a pure passthrough";
    std::uint64_t journalOps = journalCounter.opCount();

    std::string countStore = tmpPath("enum_store_count");
    removeTree(countStore);
    FaultyIoEnv storeCounter(inert);
    ASSERT_TRUE(runStoreWorkload(storeCounter, countStore));
    EXPECT_EQ(canonicalStoreBytes(countStore), storeRef);
    std::uint64_t storeOps = storeCounter.opCount();

    std::string countServe = tmpPath("enum_serve_count");
    removeTree(countServe);
    FaultyIoEnv serveCounter(inert);
    DaemonRun serveRef = runDaemonWorkload(serveCounter, countServe);
    ASSERT_TRUE(serveRef.constructed);
    ASSERT_EQ(serveRef.acked.size(), daemonPayloads().size());
    std::uint64_t serveOps = serveCounter.opCount();

    // The acceptance floor: the three workloads together expose at
    // least 100 distinct fault points.
    EXPECT_GE(journalOps + storeOps + serveOps, 100u)
        << "journal=" << journalOps << " store=" << storeOps
        << " serve=" << serveOps;

    // Fail every journal op in turn.
    for (std::uint64_t op = 1; op <= journalOps; ++op) {
        std::string path = tmpPath("enum_journal_fault.jsonl");
        std::remove(path.c_str());
        IoFaultPlan plan;
        plan.seed = 0xf417 + op;
        plan.failAtOp = op;
        FaultyIoEnv env(plan);
        runJournalWorkload(env, path); // may fail; must not die
        EXPECT_EQ(env.stats().injectedFailures, 1u) << "op " << op;
        EXPECT_EQ(recoverJournal(path), journalRef)
            << "journal fault at op " << op;
        std::remove(path.c_str());
    }

    // Fail every store op in turn.
    for (std::uint64_t op = 1; op <= storeOps; ++op) {
        std::string dir = tmpPath("enum_store_fault");
        removeTree(dir);
        IoFaultPlan plan;
        plan.seed = 0x5704e + op;
        plan.failAtOp = op;
        FaultyIoEnv env(plan);
        runStoreWorkload(env, dir);
        EXPECT_EQ(env.stats().injectedFailures, 1u) << "op " << op;
        EXPECT_EQ(recoverStore(dir), storeRef)
            << "store fault at op " << op;
        removeTree(dir);
    }

    // Fail every daemon op in turn.
    for (std::uint64_t op = 1; op <= serveOps; ++op) {
        std::string dir = tmpPath("enum_serve_fault");
        removeTree(dir);
        IoFaultPlan plan;
        plan.seed = 0xda30 + op;
        plan.failAtOp = op;
        FaultyIoEnv env(plan);
        DaemonRun run = runDaemonWorkload(env, dir);
        EXPECT_EQ(env.stats().injectedFailures, 1u) << "op " << op;
        if (run.constructed && run.acked.size() <
                                   daemonPayloads().size()) {
            EXPECT_GT(run.stats.ioErrors, 0u) << "op " << op;
        }
        verifyDaemonRecovery(dir, run);
        removeTree(dir);
    }

    std::remove(journalBase.c_str());
    std::remove(countJournal.c_str());
    removeTree(storeBase);
    removeTree(countStore);
    removeTree(countServe);
}

// ---------------------------------------------------------------------------
// ENOSPC battery: cap the cumulative write budget at awkward
// boundaries and demand the same recovery contract from each layer.
// ---------------------------------------------------------------------------

TEST(IoFaultEnospc, JournalRecoversByteIdentical)
{
    std::string base = tmpPath("enospc_journal_base.jsonl");
    std::remove(base.c_str());
    ASSERT_TRUE(runJournalWorkload(realIoEnv(), base));
    std::string ref = readFileOr(base);
    std::uint64_t total = ref.size();
    std::uint64_t header = ref.find('\n') + 1;

    std::vector<std::uint64_t> caps = {0,          header - 2,
                                       header + 7, total / 2,
                                       total - 3,  total + 1000};
    for (std::uint64_t cap : caps) {
        std::string path = tmpPath("enospc_journal.jsonl");
        std::remove(path.c_str());
        IoFaultPlan plan;
        plan.seed = 0xe205bc;
        plan.enospcAfterBytes = cap;
        FaultyIoEnv env(plan);
        runJournalWorkload(env, path);
        EXPECT_EQ(recoverJournal(path), ref) << "cap " << cap;
        std::remove(path.c_str());
    }
    std::remove(base.c_str());
}

TEST(IoFaultEnospc, StoreRecoversCleanAndByteIdentical)
{
    std::string base = tmpPath("enospc_store_base");
    removeTree(base);
    ASSERT_TRUE(runStoreWorkload(realIoEnv(), base));
    std::string ref = canonicalStoreBytes(base);
    std::uint64_t total = 0;
    {
        StoreSurvey survey = surveyStore(base);
        total = survey.bytes;
    }

    std::vector<std::uint64_t> caps = {0, 16, total / 3, total / 2,
                                       total - 5};
    for (std::uint64_t cap : caps) {
        std::string dir = tmpPath("enospc_store");
        removeTree(dir);
        IoFaultPlan plan;
        plan.seed = 0xe205bd;
        plan.enospcAfterBytes = cap;
        FaultyIoEnv env(plan);
        runStoreWorkload(env, dir);
        // Whatever ENOSPC left behind must already be verify-clean:
        // disabled shards truncate their tail instead of tearing it.
        StoreSurvey damaged = surveyStore(dir);
        EXPECT_EQ(damaged.corruptRecords, 0u) << "cap " << cap;
        EXPECT_EQ(damaged.tornTails, 0u) << "cap " << cap;
        EXPECT_EQ(damaged.badHeaders, 0u) << "cap " << cap;
        EXPECT_EQ(recoverStore(dir), ref) << "cap " << cap;
        removeTree(dir);
    }
    removeTree(base);
}

TEST(IoFaultEnospc, DaemonSurfacesErrorsAndKeepsAckedPayloads)
{
    bool sawRejectedSubmit = false;
    for (std::uint64_t cap : {4ull, 30ull, 150ull, 1ull << 20}) {
        std::string dir = tmpPath("enospc_serve");
        removeTree(dir);
        IoFaultPlan plan;
        plan.seed = 0xe205be;
        plan.enospcAfterBytes = cap;
        FaultyIoEnv env(plan);
        DaemonRun run = runDaemonWorkload(env, dir);
        if (run.constructed &&
            run.acked.size() < daemonPayloads().size()) {
            sawRejectedSubmit = true;
            EXPECT_GT(run.stats.ioErrors, 0u) << "cap " << cap;
        }
        verifyDaemonRecovery(dir, run);
        removeTree(dir);
    }
    EXPECT_TRUE(sawRejectedSubmit)
        << "no cap produced a failed-but-surfaced submit";
}

// ---------------------------------------------------------------------------
// Satellite invariants.
// ---------------------------------------------------------------------------

TEST(IoFaultStore, WriteErrorDisablesShardWithoutCorruption)
{
    std::string dir = tmpPath("store_write_error");
    removeTree(dir);
    std::vector<ExperimentPoint> grid = journalGrid();

    // Session 1 (healthy): one record in shard 0x01.
    {
        std::unique_ptr<ResultStore> store =
            ResultStore::open(dir, storeFp);
        store->insert(0x01, makeResult(grid[0], 0));
    }
    std::string before = canonicalStoreBytes(dir);

    // Session 2: the disk is full from the first byte.
    {
        IoFaultPlan plan;
        plan.enospcAfterBytes = 0;
        FaultyIoEnv env(plan);
        std::unique_ptr<ResultStore> store =
            ResultStore::open(dir, storeFp, StoreOptions{}, env);
        store->insert(0x101, makeResult(grid[1], 1)); // same shard
        EXPECT_EQ(store->stats().writeErrors, 1u);
        store->insert(0x201, makeResult(grid[2], 2)); // declined
        EXPECT_EQ(store->stats().writeErrors, 1u)
            << "a disabled shard declines silently";
        store->insert(0x42, makeResult(grid[3], 3)); // new shard
        EXPECT_EQ(store->stats().writeErrors, 2u);
        ExperimentResult out;
        EXPECT_TRUE(store->lookup(0x01, out)) << "reads must survive";
        EXPECT_EQ(surveyStore(dir).records, 1u);
    }

    // No tail corruption: the surviving bytes are exactly session 1's.
    EXPECT_EQ(canonicalStoreBytes(dir), before);
    EXPECT_TRUE(surveyStore(dir).clean());
    removeTree(dir);
}

TEST(IoFaultJournal, SyncFailureDegradesWithErrnoDetail)
{
    std::string path = tmpPath("journal_sync_fail.jsonl");
    std::remove(path.c_str());
    std::vector<ExperimentPoint> grid = journalGrid();

    // create = openTrunc + header write + header sync (ops 1-3);
    // the first commit's fsync is op 5.
    IoFaultPlan plan;
    plan.failAtOp = 5;
    FaultyIoEnv env(plan);
    std::unique_ptr<RunJournal> journal =
        RunJournal::create(path, grid, env);
    std::string headerOnly = readFileOr(path);

    PointOutcome out = makeOutcome(grid[0], 0);
    EXPECT_FALSE(journal->commit(0, out));
    EXPECT_TRUE(journal->writeFailed());
    EXPECT_FALSE(journal->writeError().empty());
    EXPECT_EQ(journal->writeError(), IoStatus::failure(EIO).text());

    // Inert from the first error on: later commits are refused
    // without touching the file, and the unsynced record was
    // truncated away — the file is still the clean header prefix.
    PointOutcome next = makeOutcome(grid[1], 1);
    EXPECT_FALSE(journal->commit(1, next));
    journal.reset();
    EXPECT_EQ(readFileOr(path), headerOnly);

    EXPECT_EQ(recoverJournal(path), [&] {
        std::string ref = tmpPath("journal_sync_ref.jsonl");
        std::remove(ref.c_str());
        runJournalWorkload(realIoEnv(), ref);
        std::string bytes = readFileOr(ref);
        std::remove(ref.c_str());
        return bytes;
    }());
    std::remove(path.c_str());
}

TEST(IoFaultPowerCut, DroppedUnsyncedBytesRecoverClean)
{
    std::string base = tmpPath("powercut_base");
    removeTree(base);
    ASSERT_TRUE(runStoreWorkload(realIoEnv(), base));
    std::string ref = canonicalStoreBytes(base);

    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
        std::string dir = tmpPath("powercut_store");
        removeTree(dir);
        IoFaultPlan plan;
        plan.seed = seed;
        plan.powerCut = true;
        FaultyIoEnv env(plan);
        ASSERT_TRUE(runStoreWorkload(env, dir));
        env.powerCut();
        // The cut may leave a torn trailing record; reopening must
        // absorb it (that is the no-torn-record-served contract) and
        // a refill must land on the reference bytes.
        EXPECT_EQ(recoverStore(dir), ref) << "seed " << seed;
        removeTree(dir);
    }
    removeTree(base);
}

TEST(IoFaultBatch, JournalFaultRecoversByteIdenticalAcrossJobs)
{
    registerAllWorkloads();
    ExperimentOptions base;
    base.size = SizeClass::Tiny;
    base.runs = 2;
    base.baseSeed = 42;
    std::vector<TransferMode> modes(allTransferModes.begin(),
                                    allTransferModes.end());
    std::vector<ExperimentPoint> grid =
        expandGrid({"saxpy"}, modes, 1, base);

    // Uninterrupted serial reference.
    std::string refPath = tmpPath("batch_ref.jsonl");
    std::remove(refPath.c_str());
    {
        RunPolicy policy;
        std::unique_ptr<RunJournal> journal =
            RunJournal::create(refPath, grid);
        policy.journal = journal.get();
        ParallelRunner serial(SystemConfig::a100Epyc(), 1);
        BatchResult reference = serial.runPoints(grid, policy);
        ASSERT_TRUE(reference.allOk());
    }
    std::string refBytes = readFileOr(refPath);
    ASSERT_FALSE(refBytes.empty());

    for (unsigned jobs : {1u, 4u}) {
        std::string path =
            tmpPath("batch_fault_j" + std::to_string(jobs) + ".jsonl");
        std::remove(path.c_str());

        // Fault the second record's write (op 6): the journal goes
        // inert mid-batch but the batch itself must finish.
        IoFaultPlan plan;
        plan.failAtOp = 6;
        FaultyIoEnv env(plan);
        {
            RunPolicy policy;
            std::unique_ptr<RunJournal> journal =
                RunJournal::create(path, grid, env);
            policy.journal = journal.get();
            ParallelRunner runner(SystemConfig::a100Epyc(), jobs);
            BatchResult result = runner.runPoints(grid, policy);
            EXPECT_TRUE(result.allOk())
                << "journal faults degrade, never kill";
            EXPECT_TRUE(journal->writeFailed());
            EXPECT_GT(result.metrics.journalErrors, 0u);
        }

        // Resume on the real filesystem and finish the batch.
        {
            std::unique_ptr<RunJournal> journal =
                RunJournal::resume(path, grid);
            EXPECT_EQ(journal->restoredCount(), 1u);
            RunPolicy policy;
            policy.journal = journal.get();
            ParallelRunner runner(SystemConfig::a100Epyc(), jobs);
            BatchResult resumed = runner.runPoints(grid, policy);
            EXPECT_TRUE(resumed.allOk());
            EXPECT_EQ(resumed.metrics.journalErrors, 0u);
        }
        EXPECT_EQ(readFileOr(path), refBytes) << "jobs " << jobs;
        std::remove(path.c_str());
    }
    std::remove(refPath.c_str());
}

TEST(IoFaultDeathTest, UnwindingPastFailedWritersDoesNotTerminate)
{
    // If any destructor on these paths called fatal() (or threw)
    // while a FatalError was unwinding, the child would die on
    // std::terminate instead of reaching exit(0).
    EXPECT_EXIT(
        {
            std::vector<ExperimentPoint> grid = journalGrid();
            std::string dir = tmpPath("death_store");
            removeTree(dir);

            // Journal creation fatals on its header sync while the
            // just-opened file handle unwinds.
            {
                IoFaultPlan plan;
                plan.failSyncs = true;
                FaultyIoEnv env(plan);
                try {
                    FatalThrowScope scope;
                    std::unique_ptr<RunJournal> journal =
                        RunJournal::create(
                            tmpPath("death_journal.jsonl"), grid,
                            env);
                } catch (const FatalError &) {
                }
            }

            // A store whose every write fails is destroyed while a
            // FatalError unwinds through its owning scope; the meta
            // rewrite failure must warn, not die.
            {
                IoFaultPlan plan;
                plan.enospcAfterBytes = 0;
                FaultyIoEnv env(plan);
                try {
                    FatalThrowScope scope;
                    std::unique_ptr<ResultStore> store =
                        ResultStore::open(dir, storeFp,
                                          StoreOptions{}, env);
                    ExperimentResult result =
                        makeResult(grid[0], 0);
                    store->insert(0x01, result);
                    fatal("synthetic failure with a live store");
                } catch (const FatalError &) {
                }
            }
            removeTree(dir);
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
}

// ---------------------------------------------------------------------------
// Bit-flip sweep: every byte of every record kind, flipped, is
// refused or ignored, never restored, served from the store, or
// streamed. The flipped bit cycles with the byte offset, so every
// bit position is exercised in every record.
// ---------------------------------------------------------------------------

namespace
{

std::string
flipByte(const std::string &bytes, std::size_t i)
{
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ (1 << (i % 8)));
    return bad;
}

void
writeFileRaw(const std::string &path, const std::string &contents)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
    ASSERT_TRUE(out.good()) << path;
}

/** The failed record kind: quarantined after a retry trail. */
PointOutcome
quarantinedOutcome()
{
    PointOutcome out;
    out.status = PointStatus::Quarantined;
    out.attempts = 2;
    out.error = "watchdog: livelock";
    out.attemptTrail = {{PointStatus::Timeout, "watchdog: spin"},
                        {PointStatus::Failed, "cudaErrorIllegal"}};
    return out;
}

/**
 * A journal at @p path over @p grid: header, one ok record (point 0)
 * and one quarantined record (point 1). Returns the two outcomes.
 */
std::vector<PointOutcome>
writeFlipJournal(const std::string &path,
                 const std::vector<ExperimentPoint> &grid)
{
    std::vector<PointOutcome> outcomes = {makeOutcome(grid[0], 0),
                                          quarantinedOutcome()};
    std::remove(path.c_str());
    std::unique_ptr<RunJournal> journal =
        RunJournal::create(path, grid);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        PointOutcome copy = outcomes[i];
        EXPECT_TRUE(journal->commit(i, copy));
    }
    return outcomes;
}

} // namespace

TEST(IoFaultBitFlip, ResumeNeverRestoresAFlippedRecord)
{
    std::vector<ExperimentPoint> grid = journalGrid();
    std::string path = tmpPath("flip_journal.jsonl");
    std::vector<PointOutcome> original = writeFlipJournal(path, grid);
    std::string clean = readFileOr(path);

    std::size_t refused = 0;
    for (std::size_t i = 0; i < clean.size(); ++i) {
        writeFileRaw(path, flipByte(clean, i));
        std::unique_ptr<RunJournal> journal;
        try {
            FatalThrowScope scope;
            journal = RunJournal::resume(path, grid);
        } catch (const FatalError &) {
            ++refused;
            continue;
        }
        // Accepted: only a torn final newline can get here, and
        // whatever was restored must equal what was committed.
        for (std::size_t k = 0; k < grid.size(); ++k) {
            PointOutcome got;
            if (!journal->restore(k, got))
                continue;
            ASSERT_LT(k, original.size()) << "byte " << i;
            std::uint64_t hash = pointConfigHash(grid[k]);
            EXPECT_EQ(journalRecordLine(k, hash, grid[k], got),
                      journalRecordLine(k, hash, grid[k], original[k]))
                << "byte " << i << " restored a different point " << k;
        }
    }
    EXPECT_EQ(refused, clean.size() - 1); // all but the last '\n'
    std::remove(path.c_str());
}

TEST(IoFaultBitFlip, WarmStoreNeverServesAFlippedRecord)
{
    std::vector<ExperimentPoint> grid = journalGrid();
    std::string dir = tmpPath("flip_store");
    removeTree(dir);
    constexpr std::uint64_t key = 0x42;
    {
        std::unique_ptr<ResultStore> store =
            ResultStore::open(dir, storeFp);
        store->insert(key, makeResult(grid[0], 0));
    }
    std::string path = dir + "/shards/s42";
    std::string clean = readFileOr(path);
    ASSERT_FALSE(clean.empty());

    // Segment header and record alike: every flip is a miss.
    for (std::size_t i = 0; i < clean.size(); ++i) {
        writeFileRaw(path, flipByte(clean, i));
        std::unique_ptr<ResultStore> store = ResultStore::open(
            dir, storeFp, StoreOptions{/*readonly=*/true, 0});
        ExperimentResult got;
        EXPECT_FALSE(store->lookup(key, got)) << "byte " << i;
    }
    writeFileRaw(path, clean);
    std::unique_ptr<ResultStore> store = ResultStore::open(
        dir, storeFp, StoreOptions{/*readonly=*/true, 0});
    ExperimentResult got;
    EXPECT_TRUE(store->lookup(key, got));
    removeTree(dir);
}

TEST(IoFaultBitFlip, DaemonStreamNeverServesAFlippedRecord)
{
    registerAllWorkloads();
    std::string state = tmpPath("flip_serve");
    removeTree(state);
    std::string payload = daemonPayloads().front();
    BatchSpec spec;
    std::string error;
    ASSERT_TRUE(parseBatchSpec(payload, spec, error)) << error;
    std::vector<ExperimentPoint> grid = batchSpecPoints(spec);
    ASSERT_GE(grid.size(), 2u);

    realIoEnv().makeDir(state);
    realIoEnv().makeDir(state + "/batches");
    std::string base = state + "/batches/" + hexU64(1);
    writeFileRaw(base + ".kv", payload);
    writeFlipJournal(base + ".jsonl", grid);
    std::string clean = readFileOr(base + ".jsonl");
    std::string expected;
    for (const LogRecord &rec : scanRecordLog(clean).records)
        expected += rec.payload + "\n";
    expected.erase(0, expected.find('\n') + 1); // the header

    // Paused: the batch stays pending, and stream() rereads the
    // journal on every call.
    ServeOptions opt;
    opt.stateDir = state;
    opt.paused = true;
    ServeDaemon daemon(opt);
    StreamChunk chunk;
    ASSERT_TRUE(daemon.stream(1, 0, chunk, error)) << error;
    EXPECT_EQ(chunk.lines, expected);
    for (std::size_t i = 0; i < clean.size(); ++i) {
        writeFileRaw(base + ".jsonl", flipByte(clean, i));
        ASSERT_TRUE(daemon.stream(1, 0, chunk, error)) << error;
        // Only whole, unchanged records: a prefix of the original
        // stream that stops before the flipped one.
        EXPECT_EQ(expected.compare(0, chunk.lines.size(), chunk.lines),
                  0)
            << "byte " << i;
        EXPECT_LT(chunk.records, 2u) << "byte " << i;
    }
    daemon.stop();
    removeTree(state);
}

TEST(IoFaultEnv, SaltAndPlanAreDeterministic)
{
    EXPECT_EQ(ioFaultSalt(1, 2), ioFaultSalt(1, 2));
    EXPECT_NE(ioFaultSalt(1, 2), ioFaultSalt(1, 3));
    EXPECT_NE(ioFaultSalt(1, 2), ioFaultSalt(2, 2));

    // Two identical faulted runs leave identical bytes behind —
    // short-write prefixes included.
    std::string a = tmpPath("det_a.jsonl");
    std::string b = tmpPath("det_b.jsonl");
    std::remove(a.c_str());
    std::remove(b.c_str());
    IoFaultPlan plan;
    plan.seed = 99;
    plan.failAtOp = 8;
    {
        FaultyIoEnv env(plan);
        runJournalWorkload(env, a);
    }
    {
        FaultyIoEnv env(plan);
        runJournalWorkload(env, b);
    }
    EXPECT_EQ(readFileOr(a), readFileOr(b));
    std::remove(a.c_str());
    std::remove(b.c_str());
}

} // namespace uvmasync
