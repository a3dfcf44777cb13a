/**
 * @file
 * Tests for the persistent content-addressed result store: bit-exact
 * record round-trips, cold/warm equivalence (a warm rerun simulates
 * nothing yet produces byte-identical journals and bit-identical
 * results at any job count), the corruption battery (kill-anywhere
 * truncation, torn half-records, flipped bytes detected by checksum
 * and never served), invalidation (any option knob changes the key;
 * a fingerprint bump misses every prior entry), LRU eviction under a
 * byte budget, and the refusal fatals (stale fingerprint readonly,
 * unwritable directory, non-store meta).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include "common/logging.hh"
#include "core/parallel_runner.hh"
#include "io/record_log.hh"
#include "journal/journal.hh"
#include "journal/json.hh"
#include "store/fingerprint.hh"
#include "store/result_store.hh"
#include "grid.hh"

namespace uvmasync
{
namespace
{

std::string
tmpDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "uvmasync_store_" + name;
    return dir;
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

/** Concatenated name-tagged segment bytes: the store's disk identity. */
std::string
segmentBytes(const std::string &dir)
{
    std::string all;
    for (std::size_t s = 0; s < ResultStore::shardCount; ++s) {
        char name[8];
        std::snprintf(name, sizeof(name), "s%02zx", s);
        std::string path = dir + "/shards/" + name;
        if (!fileExists(path))
            continue;
        all += name;
        all += ':';
        all += readFile(path);
    }
    return all;
}

void
removeStoreDir(const std::string &dir)
{
    for (std::size_t s = 0; s < ResultStore::shardCount; ++s) {
        char name[8];
        std::snprintf(name, sizeof(name), "s%02zx", s);
        std::remove((dir + "/shards/" + name).c_str());
    }
    std::remove((dir + "/meta.json").c_str());
    ::rmdir((dir + "/shards").c_str());
    ::rmdir(dir.c_str());
}

/** %.17g textual fingerprint — equal strings mean identical bits. */
std::string
resultFingerprint(const ExperimentResult &res)
{
    char buf[256];
    std::string out = res.workload;
    out += '/';
    out += transferModeName(res.mode);
    auto add = [&](const TimeBreakdown &b) {
        std::snprintf(buf, sizeof(buf), "|%.17g,%.17g,%.17g",
                      b.allocPs, b.transferPs, b.kernelPs);
        out += buf;
    };
    add(res.clean);
    for (const TimeBreakdown &run : res.runs)
        add(run);
    std::snprintf(buf, sizeof(buf), "|f%llu|h%llu|d%llu|%.17g",
                  static_cast<unsigned long long>(res.counters.faults),
                  static_cast<unsigned long long>(
                      res.counters.bytesH2d),
                  static_cast<unsigned long long>(
                      res.counters.bytesD2h),
                  res.counters.occupancy);
    out += buf;
    return out;
}

/** 2 workloads x 5 modes, tiny and fast but real. */
std::vector<ExperimentPoint>
smallGrid()
{
    ExperimentOptions base;
    base.size = SizeClass::Tiny;
    base.runs = 2;
    base.baseSeed = 42;
    std::vector<TransferMode> modes(allTransferModes.begin(),
                                    allTransferModes.end());
    return expandGrid({"saxpy", "vector_seq"}, modes,
                                      1, base);
}

/** A result with bit-pattern-hostile doubles for round-trip tests. */
ExperimentResult
trickyResult()
{
    ExperimentResult res;
    res.workload = "saxpy";
    res.mode = TransferMode::UvmPrefetchAsync;
    res.size = SizeClass::Tiny;
    res.clean.allocPs = 1.0 / 3.0;
    res.clean.transferPs = 3.141592653589793e12;
    res.clean.kernelPs = 5e-324; // smallest denormal
    res.runs.push_back(res.clean);
    res.runs.push_back(TimeBreakdown{1e308, 2.2250738585072014e-308,
                                     0.1 + 0.2});
    res.counters.faults = 123456789;
    res.counters.occupancy = 0.9999999999999999;
    return res;
}

// --- Fingerprint -------------------------------------------------------

TEST(Fingerprint, StableAndConfigSensitive)
{
    SystemConfig a = SystemConfig::a100Epyc();
    SystemConfig b = SystemConfig::a100Epyc();
    EXPECT_EQ(modelSemanticsFingerprint(a),
              modelSemanticsFingerprint(b));

    b.gpu.smCount += 1;
    EXPECT_NE(modelSemanticsFingerprint(a),
              modelSemanticsFingerprint(b));
    b = SystemConfig::a100Epyc();
    b.uvm.chunkBytes *= 2;
    EXPECT_NE(modelSemanticsFingerprint(a),
              modelSemanticsFingerprint(b));
    b = SystemConfig::a100Epyc();
    b.noise.kernelCv += 0.001;
    EXPECT_NE(modelSemanticsFingerprint(a),
              modelSemanticsFingerprint(b));
}

TEST(Fingerprint, WatchdogCeilingsAreExcluded)
{
    // Ceilings only decide failure, and failures are never cached —
    // loosening one must not orphan every prior store entry.
    SystemConfig a = SystemConfig::a100Epyc();
    SystemConfig b = SystemConfig::a100Epyc();
    b.watchdog.maxEvents = a.watchdog.maxEvents / 2 + 1;
    b.watchdog.maxSimTime = a.watchdog.maxSimTime / 2 + 1;
    b.watchdog.maxStallEvents = a.watchdog.maxStallEvents / 2 + 1;
    EXPECT_EQ(modelSemanticsFingerprint(a),
              modelSemanticsFingerprint(b));
}

// --- Record serialization ----------------------------------------------

TEST(StoreRecord, RoundTripIsBitExact)
{
    ExperimentResult res = trickyResult();
    std::string line = storeRecordLine(0xabcdef0123456789ull,
                                       0x42ull, res);

    std::uint64_t fp = 0;
    std::uint64_t key = 0;
    ExperimentResult back;
    std::string error;
    ASSERT_TRUE(parseStoreRecord(line, fp, key, back, error))
        << error;
    EXPECT_EQ(fp, 0xabcdef0123456789ull);
    EXPECT_EQ(key, 0x42ull);
    EXPECT_EQ(resultFingerprint(back), resultFingerprint(res));
    EXPECT_EQ(back.size, res.size);

    // Serialization is a pure function: re-encoding the parsed copy
    // reproduces the line byte for byte.
    EXPECT_EQ(storeRecordLine(fp, key, back), line);
}

TEST(StoreRecord, EveryFlippedByteIsRejected)
{
    ExperimentResult res = trickyResult();
    std::string header = frameRecord(storeSegmentHeaderLine(0x22));
    std::string line =
        frameRecord(storeRecordLine(0x1111ull, 0x2222ull, res));
    ASSERT_EQ(scanStoreSegment(header + line, 0x22).entries.size(), 1u);

    // Flip every bit of every byte of the framed record, newline
    // included: each one must be rejected, even a flip that would
    // still decode to an equal record.
    for (std::size_t i = 0; i < line.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = line;
            bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
            StoreSegment seg = scanStoreSegment(header + bad, 0x22);
            EXPECT_TRUE(seg.entries.empty())
                << "byte " << i << " bit " << bit << " accepted";
        }
    }
}

// --- Cold/warm equivalence ---------------------------------------------

TEST(Store, WarmRerunServesEverythingByteIdentically)
{
    std::vector<ExperimentPoint> grid = smallGrid();
    std::string dir = tmpDir("warm");
    removeStoreDir(dir);
    std::uint64_t fp =
        modelSemanticsFingerprint(SystemConfig::a100Epyc());

    std::string coldJournal = tmpDir("warm_cold.jsonl");
    std::string warmJournal = tmpDir("warm_warm.jsonl");

    // Cold, serial, journaled.
    BatchResult cold;
    {
        auto store = ResultStore::open(dir, fp);
        StorePointCache cache(*store, grid);
        auto journal = RunJournal::create(coldJournal, grid);
        RunPolicy policy;
        policy.journal = journal.get();
        policy.cache = &cache;
        ParallelRunner serial(SystemConfig::a100Epyc(), 1);
        cold = serial.runPoints(grid, policy);
        EXPECT_TRUE(cold.allOk());
        EXPECT_EQ(cold.metrics.cacheHits, 0u);
        EXPECT_EQ(store->stats().hits, 0u);
        EXPECT_EQ(store->stats().lookups, grid.size());
        EXPECT_EQ(store->stats().stored, grid.size());
    }
    std::string coldSegments = segmentBytes(dir);
    ASSERT_FALSE(coldSegments.empty());

    // Warm, parallel, fresh journal: zero simulations, same bytes.
    BatchResult warm;
    {
        auto store = ResultStore::open(dir, fp);
        StorePointCache cache(*store, grid);
        auto journal = RunJournal::create(warmJournal, grid);
        RunPolicy policy;
        policy.journal = journal.get();
        policy.cache = &cache;
        ParallelRunner parallel(SystemConfig::a100Epyc(), 4);
        warm = parallel.runPoints(grid, policy);
        EXPECT_TRUE(warm.allOk());
        EXPECT_EQ(warm.metrics.cacheHits, grid.size());
        EXPECT_EQ(store->stats().hits, grid.size());
        EXPECT_EQ(store->stats().lookups, grid.size());
        EXPECT_EQ(store->stats().stored, 0u);
    }

    // The journal a warm run writes is byte-identical to the cold
    // one (a cache hit is journaled like the fresh result it
    // replays), and the store's segments are untouched.
    EXPECT_EQ(readFile(warmJournal), readFile(coldJournal));
    EXPECT_EQ(segmentBytes(dir), coldSegments);
    ASSERT_EQ(warm.points.size(), cold.points.size());
    for (std::size_t i = 0; i < warm.points.size(); ++i) {
        EXPECT_TRUE(warm.points[i].cached) << i;
        EXPECT_EQ(resultFingerprint(warm.points[i].result),
                  resultFingerprint(cold.points[i].result))
            << i;
    }

    std::remove(coldJournal.c_str());
    std::remove(warmJournal.c_str());
    removeStoreDir(dir);
}

TEST(Store, ColdSegmentsAreByteIdenticalAcrossJobCounts)
{
    std::vector<ExperimentPoint> grid = smallGrid();
    std::uint64_t fp =
        modelSemanticsFingerprint(SystemConfig::a100Epyc());
    std::string dirA = tmpDir("jobs1");
    std::string dirB = tmpDir("jobs4");
    removeStoreDir(dirA);
    removeStoreDir(dirB);

    for (auto [dir, jobs] :
         {std::make_pair(dirA, 1u), std::make_pair(dirB, 4u)}) {
        auto store = ResultStore::open(dir, fp);
        StorePointCache cache(*store, grid);
        RunPolicy policy;
        policy.cache = &cache;
        ParallelRunner runner(SystemConfig::a100Epyc(), jobs);
        EXPECT_TRUE(runner.runPoints(grid, policy).allOk());
    }
    std::string bytesA = segmentBytes(dirA);
    EXPECT_FALSE(bytesA.empty());
    EXPECT_EQ(segmentBytes(dirB), bytesA);
    removeStoreDir(dirA);
    removeStoreDir(dirB);
}

TEST(Store, FailedPointsAreNeverCached)
{
    ExperimentOptions opts;
    opts.size = SizeClass::Tiny;
    opts.runs = 1;
    std::vector<ExperimentPoint> points = {
        {"vector_seq", TransferMode::Standard, opts},
        {"no_such_workload", TransferMode::Uvm, opts},
        {"saxpy", TransferMode::Async, opts},
    };
    std::string dir = tmpDir("nofail");
    removeStoreDir(dir);
    std::uint64_t fp =
        modelSemanticsFingerprint(SystemConfig::a100Epyc());

    {
        auto store = ResultStore::open(dir, fp);
        StorePointCache cache(*store, points);
        RunPolicy policy;
        policy.retries = 1;
        policy.cache = &cache;
        ParallelRunner runner(SystemConfig::a100Epyc(), 2);
        BatchResult batch = runner.runPoints(points, policy);
        EXPECT_EQ(batch.quarantined(), 1u);
        // Only the two successes were stored.
        EXPECT_EQ(surveyStore(dir).records, 2u);
        EXPECT_EQ(store->stats().stored, 2u);
    }

    // The warm rerun serves the successes and re-fails the bad point
    // (failure is never served from cache).
    {
        auto store = ResultStore::open(dir, fp);
        StorePointCache cache(*store, points);
        RunPolicy policy;
        policy.retries = 1;
        policy.cache = &cache;
        ParallelRunner runner(SystemConfig::a100Epyc(), 2);
        BatchResult batch = runner.runPoints(points, policy);
        EXPECT_EQ(batch.metrics.cacheHits, 2u);
        EXPECT_EQ(batch.points[1].status, PointStatus::Quarantined);
        EXPECT_EQ(surveyStore(dir).records, 2u);
    }
    removeStoreDir(dir);
}

TEST(Store, TracedPointsBypassTheStore)
{
    ExperimentOptions opts;
    opts.size = SizeClass::Tiny;
    opts.runs = 1;
    opts.trace = true;
    std::vector<ExperimentPoint> points = {
        {"saxpy", TransferMode::Async, opts}};
    std::string dir = tmpDir("traced");
    removeStoreDir(dir);
    std::uint64_t fp =
        modelSemanticsFingerprint(SystemConfig::a100Epyc());

    for (int round = 0; round < 2; ++round) {
        auto store = ResultStore::open(dir, fp);
        StorePointCache cache(*store, points);
        RunPolicy policy;
        policy.cache = &cache;
        ParallelRunner runner(SystemConfig::a100Epyc(), 1);
        BatchResult batch = runner.runPoints(points, policy);
        EXPECT_TRUE(batch.allOk());
        // Never cached, never stored: traces are not serializable,
        // so a traced rerun must re-simulate (deterministically).
        EXPECT_EQ(batch.metrics.cacheHits, 0u);
        EXPECT_EQ(surveyStore(dir).records, 0u);
        EXPECT_FALSE(batch.points[0].result.trace.events().empty());
    }
    removeStoreDir(dir);
}

// --- Corruption battery ------------------------------------------------

/** Populate one shard with @p n synthetic records; returns keys. */
std::vector<std::uint64_t>
populateOneShard(const std::string &dir, std::uint64_t fp,
                 std::size_t n, std::size_t shard = 0x5e)
{
    removeStoreDir(dir);
    std::vector<std::uint64_t> keys;
    auto store = ResultStore::open(dir, fp);
    for (std::size_t i = 0; i < n; ++i) {
        // Same low byte => same shard/segment file.
        std::uint64_t key =
            (static_cast<std::uint64_t>(i + 1) << 8) | shard;
        ExperimentResult res = trickyResult();
        res.counters.faults = i;
        store->insert(key, res);
        keys.push_back(key);
    }
    return keys;
}

TEST(Store, KillAnywhereTruncationRecovers)
{
    std::string dir = tmpDir("kill");
    constexpr std::uint64_t fp = 0xfeedull;
    std::vector<std::uint64_t> keys = populateOneShard(dir, fp, 6);
    std::string path = dir + "/shards/s5e";
    std::string refBytes = readFile(path);

    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < refBytes.size()) {
        std::size_t nl = refBytes.find('\n', start);
        ASSERT_NE(nl, std::string::npos);
        lines.push_back(refBytes.substr(start, nl - start + 1));
        start = nl + 1;
    }
    ASSERT_EQ(lines.size(), keys.size() + 1); // header + records

    // Kill at every record boundary, plus a torn half-record: the
    // intact prefix must load, the tail must be dropped (and
    // truncated away on a writable open), and re-inserting the lost
    // records must reproduce the reference bytes exactly.
    for (std::size_t keep = 1; keep <= lines.size(); ++keep) {
        std::string partial;
        for (std::size_t i = 0; i < keep; ++i)
            partial += lines[i];
        bool torn = keep < lines.size();
        if (torn)
            partial += lines[keep].substr(0, lines[keep].size() / 2);
        writeFile(path, partial);

        auto store = ResultStore::open(dir, fp);
        EXPECT_EQ(store->stats().tornTails, torn ? 1u : 0u)
            << "keep=" << keep;
        EXPECT_EQ(surveyStore(dir).records, keep - 1) << "keep=" << keep;
        ExperimentResult out;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            EXPECT_EQ(store->lookup(keys[i], out), i < keep - 1)
                << "keep=" << keep << " key " << i;
        }
        for (std::size_t i = keep - 1; i < keys.size(); ++i) {
            ExperimentResult res = trickyResult();
            res.counters.faults = i;
            store->insert(keys[i], res);
        }
        store.reset();
        EXPECT_EQ(readFile(path), refBytes) << "keep=" << keep;
    }
    removeStoreDir(dir);
}

TEST(Store, FlippedByteIsCountedAndNeverServed)
{
    std::string dir = tmpDir("flip");
    constexpr std::uint64_t fp = 0xfeedull;
    std::vector<std::uint64_t> keys = populateOneShard(dir, fp, 3);
    std::string path = dir + "/shards/s5e";
    std::string bytes = readFile(path);

    // Flip one byte in the middle of the second record's line.
    std::size_t firstNl = bytes.find('\n');
    std::size_t secondNl = bytes.find('\n', firstNl + 1);
    std::size_t target = secondNl + (bytes.find('\n', secondNl + 1) -
                                     secondNl) /
                                        2;
    std::string damaged = bytes;
    damaged[target] = static_cast<char>(damaged[target] ^ 0x04);
    writeFile(path, damaged);

    auto store = ResultStore::open(
        dir, fp, StoreOptions{/*readonly=*/true, 0});
    EXPECT_EQ(store->stats().corruptRecords, 1u);
    EXPECT_EQ(surveyStore(dir).records, keys.size() - 1);
    ExperimentResult out;
    EXPECT_TRUE(store->lookup(keys[0], out));
    EXPECT_FALSE(store->lookup(keys[1], out)); // damaged: a miss
    EXPECT_TRUE(store->lookup(keys[2], out));

    // surveyStore sees the same corruption; `store verify` gates on
    // clean().
    StoreSurvey survey = surveyStore(dir);
    EXPECT_EQ(survey.corruptRecords, 1u);
    EXPECT_FALSE(survey.clean());

    // gc drops the corrupt line; the survivors still serve.
    StoreGcResult gc = gcStore(dir, 0);
    EXPECT_EQ(gc.droppedRecords, 1u);
    EXPECT_TRUE(surveyStore(dir).clean());
    removeStoreDir(dir);
}

TEST(Store, IdentityMismatchIsRejectedAndCounted)
{
    // A record under a point's key that carries another point's
    // identity (a config-hash collision, or damage the checksum
    // missed) is counted as corrupt and never served.
    std::string dir = tmpDir("identity");
    removeStoreDir(dir);
    ExperimentOptions opts;
    opts.size = SizeClass::Tiny;
    opts.runs = 1;
    std::vector<ExperimentPoint> points = {
        {"saxpy", TransferMode::Uvm, opts}};
    auto store = ResultStore::open(dir, 0xfeedull);
    ExperimentResult other;
    other.workload = "gemv";
    other.mode = TransferMode::Uvm;
    other.size = SizeClass::Tiny;
    store->insert(pointConfigHash(points[0]), other);

    StorePointCache cache(*store, points);
    PointOutcome out;
    EXPECT_FALSE(cache.lookup(0, out));
    EXPECT_EQ(store->stats().corruptRecords, 1u);
    removeStoreDir(dir);
}

// --- Invalidation ------------------------------------------------------

TEST(Store, FingerprintBumpMissesEveryPriorEntry)
{
    std::string dir = tmpDir("bump");
    std::vector<std::uint64_t> keys =
        populateOneShard(dir, /*fp=*/1, 4);

    // Same keys under a bumped fingerprint: all stale misses.
    auto store = ResultStore::open(dir, /*fp=*/2);
    ExperimentResult out;
    for (std::uint64_t key : keys)
        EXPECT_FALSE(store->lookup(key, out));
    EXPECT_EQ(store->stats().hits, 0u);
    EXPECT_EQ(store->stats().staleMisses, keys.size());

    // Both generations coexist until invalidated.
    ExperimentResult res = trickyResult();
    store->insert(keys[0], res);
    EXPECT_TRUE(store->lookup(keys[0], out));
    store.reset();

    std::uint64_t stale = 1;
    std::size_t dropped = invalidateStore(dir, &stale);
    EXPECT_EQ(dropped, keys.size());
    auto fresh = ResultStore::open(dir, /*fp=*/2);
    EXPECT_EQ(surveyStore(dir).records, 1u);
    EXPECT_TRUE(fresh->lookup(keys[0], out));
    removeStoreDir(dir);
}

TEST(Store, EveryOptionKnobChangesTheKey)
{
    // The store key is pointConfigHash: spot-check the knobs that
    // would poison a cache if they were missed (inject plan, inject
    // seed, trace flag), on top of test_journal's coverage.
    ExperimentPoint a{"saxpy", TransferMode::Async, {}};
    ExperimentPoint b = a;
    b.opts.inject.pcie.failRate = 0.5;
    EXPECT_NE(pointConfigHash(a), pointConfigHash(b));
    b = a;
    b.opts.injectSeed = 99;
    EXPECT_NE(pointConfigHash(a), pointConfigHash(b));
    b = a;
    b.opts.trace = true;
    EXPECT_NE(pointConfigHash(a), pointConfigHash(b));
    b = a;
    b.opts.sharedCarveout = kib(32);
    EXPECT_NE(pointConfigHash(a), pointConfigHash(b));
}

// --- Eviction ----------------------------------------------------------

TEST(Store, LruSegmentsAreEvictedUnderAByteBudget)
{
    std::string dir = tmpDir("evict");
    removeStoreDir(dir);
    constexpr std::uint64_t fp = 0xfeedull;

    // Measure one record+header so the budget holds ~3 segments.
    ExperimentResult res = trickyResult();
    std::uint64_t perSegment =
        frameRecord(storeSegmentHeaderLine(0)).size() +
        frameRecord(storeRecordLine(fp, 0, res)).size();

    StoreOptions opt;
    opt.maxBytes = perSegment * 3 + perSegment / 2;
    auto store = ResultStore::open(dir, fp, opt);

    // Fill shards 0..2 (one record each), then keep shard 0 hot.
    for (std::uint64_t s = 0; s < 3; ++s)
        store->insert(s, res);
    ExperimentResult out;
    EXPECT_TRUE(store->lookup(0, out));

    // A fourth segment exceeds the budget: the LRU victim must be
    // shard 1 (shard 0 was just touched, shard 3 is protected).
    store->insert(3, res);
    EXPECT_EQ(store->stats().evictedSegments, 1u);
    EXPECT_LE(surveyStore(dir).bytes, opt.maxBytes);
    EXPECT_TRUE(store->lookup(0, out));
    EXPECT_FALSE(store->lookup(1, out));
    EXPECT_TRUE(store->lookup(3, out));
    store.reset();

    // The logical clock persists: a reopen still knows the order.
    auto back = ResultStore::open(dir, fp, opt);
    EXPECT_EQ(surveyStore(dir).records, 3u);
    removeStoreDir(dir);
}

// --- Refusals ----------------------------------------------------------

TEST(StoreDeath, ReadonlyRefusesAStaleFingerprint)
{
    std::string dir = tmpDir("stalefp");
    populateOneShard(dir, /*fp=*/7, 1);

    FatalThrowScope guard;
    try {
        ResultStore::open(dir, /*fp=*/8,
                          StoreOptions{/*readonly=*/true, 0});
        FAIL() << "stale fingerprint accepted readonly";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("invalidate"),
                  std::string::npos);
    }
    // Writable open of the same store is fine (it repopulates).
    ResultStore::open(dir, /*fp=*/8);
    removeStoreDir(dir);
}

TEST(StoreDeath, RefusesUnwritableAndNonStoreDirectories)
{
    FatalThrowScope guard;
    EXPECT_THROW(
        ResultStore::open("/nonexistent-dir/store", 1),
        FatalError);
    EXPECT_THROW(ResultStore::open("/nonexistent-dir/store", 1,
                                   StoreOptions{true, 0}),
                 FatalError);

    // A directory whose meta.json is not a store is refused, not
    // silently overwritten.
    std::string dir = tmpDir("notastore");
    removeStoreDir(dir);
    ASSERT_EQ(::mkdir(dir.c_str(), 0777), 0);
    writeFile(dir + "/meta.json", "{\"whatever\":1}\n");
    EXPECT_THROW(ResultStore::open(dir, 1), FatalError);

    // So is a store written by a newer format version.
    writeFile(dir + "/meta.json",
              "{\"store\":\"uvmasync-store\",\"version\":999}\n");
    EXPECT_THROW(ResultStore::open(dir, 1), FatalError);
    removeStoreDir(dir);
}

// --- Offline maintenance ----------------------------------------------

TEST(Store, SurveyAndGcAgreeWithTheLiveStore)
{
    std::string dir = tmpDir("survey");
    std::vector<std::uint64_t> keys = populateOneShard(dir, 3, 5);

    StoreSurvey survey = surveyStore(dir);
    EXPECT_TRUE(survey.clean());
    EXPECT_TRUE(survey.metaOk);
    EXPECT_EQ(survey.segments, 1u);
    EXPECT_EQ(survey.records, keys.size());
    ASSERT_EQ(survey.fingerprints.size(), 1u);
    EXPECT_EQ(survey.fingerprints[0], 3u);

    // gc with no budget is an intact-preserving rewrite.
    std::string before = segmentBytes(dir);
    StoreGcResult gc = gcStore(dir, 0);
    EXPECT_EQ(gc.droppedRecords, 0u);
    EXPECT_EQ(gc.bytesBefore, gc.bytesAfter);
    EXPECT_EQ(segmentBytes(dir), before);

    // Full invalidation empties it.
    EXPECT_EQ(invalidateStore(dir, nullptr), keys.size());
    StoreSurvey after = surveyStore(dir);
    EXPECT_EQ(after.records, 0u);
    EXPECT_EQ(after.segments, 0u);
    removeStoreDir(dir);
}

// --- Fingerprint drift guard -----------------------------------------

// modelSemanticsFingerprint() hashes SystemConfig FIELD BY FIELD
// (padding makes hashing struct memory compiler-dependent), so a new
// config field is invisible to the fingerprint unless fingerprint.cc
// is taught about it — and a silently unchanged fingerprint means a
// store populated under the old semantics keeps serving stale results.
//
// These sizeof guards trip the moment a field is added to any struct
// the fingerprint covers. If one fails, you changed the model's
// configuration surface: add the new field to
// src/store/fingerprint.cc, bump modelSemanticsVersion in
// src/store/fingerprint.hh (old cached results are stale), THEN
// update the expected size here.
#define UVMASYNC_DRIFT_MESSAGE(what)                                  \
    what " changed size: a field was added or removed. Update "       \
         "modelSemanticsFingerprint() in src/store/fingerprint.cc, "  \
         "bump modelSemanticsVersion in src/store/fingerprint.hh, "   \
         "then update this guard."

TEST(FingerprintDrift, ConfigStructSizesArePinned)
{
    EXPECT_EQ(sizeof(HostMemoryConfig), 48u)
        << UVMASYNC_DRIFT_MESSAGE("HostMemoryConfig");
    EXPECT_EQ(sizeof(GpuConfig), 216u)
        << UVMASYNC_DRIFT_MESSAGE("GpuConfig");
    EXPECT_EQ(sizeof(PcieConfig), 88u)
        << UVMASYNC_DRIFT_MESSAGE("PcieConfig");
    EXPECT_EQ(sizeof(UvmConfig), 64u)
        << UVMASYNC_DRIFT_MESSAGE("UvmConfig");
    EXPECT_EQ(sizeof(AllocatorConfig), 72u)
        << UVMASYNC_DRIFT_MESSAGE("AllocatorConfig");
    EXPECT_EQ(sizeof(NoiseConfig), 40u)
        << UVMASYNC_DRIFT_MESSAGE("NoiseConfig");
    // WatchdogConfig is deliberately EXCLUDED from the fingerprint
    // (ceilings bound runs, they don't change results); if its size
    // moves, re-confirm the exclusion still holds and update here.
    EXPECT_EQ(sizeof(WatchdogConfig), 24u)
        << "WatchdogConfig changed size: confirm the new field still "
           "cannot affect simulated results (fingerprint.cc "
           "intentionally skips the watchdog), then update this "
           "guard.";
    EXPECT_EQ(sizeof(SystemConfig), 560u)
        << UVMASYNC_DRIFT_MESSAGE("SystemConfig");
}

#undef UVMASYNC_DRIFT_MESSAGE

TEST(FingerprintDrift, EveryFieldGroupMovesTheFingerprint)
{
    const SystemConfig base = SystemConfig::a100Epyc();
    const std::uint64_t baseline = modelSemanticsFingerprint(base);

    // One representative knob per hashed group: each must move the
    // fingerprint, or that group has silently fallen out of the hash.
    SystemConfig host = base;
    host.host.straddlePenalty += 0.5;
    EXPECT_NE(modelSemanticsFingerprint(host), baseline)
        << "HostMemoryConfig no longer reaches the fingerprint";

    SystemConfig gpu = base;
    gpu.gpu.smCount += 1;
    EXPECT_NE(modelSemanticsFingerprint(gpu), baseline)
        << "GpuConfig no longer reaches the fingerprint";

    SystemConfig pcie = base;
    pcie.pcie.efficiency[0] *= 0.5;
    EXPECT_NE(modelSemanticsFingerprint(pcie), baseline)
        << "PcieConfig no longer reaches the fingerprint";

    SystemConfig uvm = base;
    uvm.uvm.chunkBytes *= 2;
    EXPECT_NE(modelSemanticsFingerprint(uvm), baseline)
        << "UvmConfig no longer reaches the fingerprint";

    SystemConfig alloc = base;
    alloc.alloc.contextInit += 1;
    EXPECT_NE(modelSemanticsFingerprint(alloc), baseline)
        << "AllocatorConfig no longer reaches the fingerprint";

    SystemConfig noise = base;
    noise.noise.allocCv += 0.001;
    EXPECT_NE(modelSemanticsFingerprint(noise), baseline)
        << "NoiseConfig no longer reaches the fingerprint";

    SystemConfig capacity = base;
    capacity.deviceMemoryBytes += 1;
    EXPECT_NE(modelSemanticsFingerprint(capacity), baseline)
        << "deviceMemoryBytes no longer reaches the fingerprint";

    // And the one deliberate exclusion: watchdog ceilings bound a
    // run, they never change its results, so tightening them must
    // NOT invalidate every cached point.
    SystemConfig watchdog = base;
    watchdog.watchdog.maxEvents /= 2;
    watchdog.watchdog.maxSimTime = seconds(1);
    watchdog.watchdog.maxStallEvents /= 2;
    EXPECT_EQ(modelSemanticsFingerprint(watchdog), baseline)
        << "watchdog ceilings must stay excluded from the "
           "fingerprint (see fingerprint.cc)";
}

} // namespace
} // namespace uvmasync
