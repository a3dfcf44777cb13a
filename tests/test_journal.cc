/**
 * @file
 * Tests for the crash-safe run journal: exact JSON round-trips
 * (hexfloat doubles), record serialization, config-hash validation,
 * byte-determinism of the journal file across job counts, and the
 * kill-and-resume contract — a journal truncated at (or inside) an
 * arbitrary record boundary resumes to results and file bytes
 * identical to an uninterrupted run.
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

#include "common/logging.hh"
#include "core/parallel_runner.hh"
#include "inject/inject_plan.hh"
#include "io/record_log.hh"
#include "journal/journal.hh"
#include "journal/json.hh"
#include "grid.hh"

namespace uvmasync
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "uvmasync_journal_" + name;
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

/** %.17g textual fingerprint — equal strings mean identical bits. */
std::string
fingerprint(const ExperimentResult &res)
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

TEST(Json, WriterReaderRoundTrip)
{
    JsonWriter w;
    w.beginObject();
    w.key("name").value("tab\there \"quoted\"");
    w.key("count").value(std::uint64_t(18446744073709551615ull));
    w.key("flag").value(true);
    w.key("pi").hex(3.141592653589793);
    w.key("list").beginArray().value(std::uint64_t(1)).value(
        std::uint64_t(2));
    w.endArray();
    w.endObject();

    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(w.str(), v, error)) << error;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("name")->text, "tab\there \"quoted\"");
    std::uint64_t count = 0;
    ASSERT_TRUE(v.find("count")->asUint(count));
    EXPECT_EQ(count, 18446744073709551615ull);
    EXPECT_TRUE(v.find("flag")->boolean);
    double pi = 0;
    ASSERT_TRUE(v.find("pi")->asHex(pi));
    EXPECT_EQ(pi, 3.141592653589793);
    ASSERT_TRUE(v.find("list")->isArray());
    EXPECT_EQ(v.find("list")->items.size(), 2u);
}

TEST(Json, HexDoubleRoundTripsExactBits)
{
    const double values[] = {0.0,       1.0,   1.0 / 3.0, -2.5,
                             1e300,     1e-300, 5e-324,
                             6.02214076e23, 123456789.123456789};
    for (double v : values) {
        double back = 0;
        ASSERT_TRUE(parseHexDouble(hexDouble(v), back))
            << hexDouble(v);
        std::uint64_t a = 0, b = 0;
        std::memcpy(&a, &v, sizeof(a));
        std::memcpy(&b, &back, sizeof(b));
        EXPECT_EQ(a, b) << v;
    }
}

TEST(Json, RejectsMalformedInput)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson("{\"a\":1} trailing", v, error));
    EXPECT_FALSE(parseJson("{\"a\":", v, error));
    EXPECT_FALSE(parseJson("\"unterminated", v, error));
    EXPECT_FALSE(parseJson("\"raw\x01-control\"", v, error));
    std::string deep(100, '[');
    EXPECT_FALSE(parseJson(deep, v, error));
    EXPECT_FALSE(parseJson("", v, error));
}

TEST(Journal, RecordLineRoundTripsAnOkOutcome)
{
    ExperimentPoint point;
    point.workload = "saxpy";
    point.mode = TransferMode::UvmPrefetch;

    PointOutcome out;
    out.ok = true;
    out.status = PointStatus::Ok;
    out.attempts = 1;
    out.result.workload = "saxpy";
    out.result.mode = TransferMode::UvmPrefetch;
    out.result.size = SizeClass::Small;
    out.result.clean = {1.0 / 3.0, 2.5e9, 7.125};
    out.result.runs = {{1.5, 2.5, 3.5}, {4.5, 5.5, 6.5}};
    out.result.counters.instrs = {1e6, 2e6, 3e6, 4e5};
    out.result.counters.faults = 1234;
    out.result.counters.l1LoadMissRate = 0.037;
    out.result.counters.l1StoreMissRate = 0.011;
    out.result.counters.occupancy = 0.875;
    out.result.counters.stallTime = 99;
    out.result.counters.bytesH2d = 1 << 20;
    out.result.counters.bytesD2h = 1 << 10;
    out.result.counters.launches = 3;
    out.result.injectCounters.stormEvictions = 17;

    std::string line = journalRecordLine(4, 0xdeadbeefcafef00dull,
                                         point, out);

    std::size_t index = 0;
    std::uint64_t hash = 0;
    PointOutcome back;
    std::string error;
    ASSERT_TRUE(parseJournalRecord(line, index, hash, back, error))
        << error;
    EXPECT_EQ(index, 4u);
    EXPECT_EQ(hash, 0xdeadbeefcafef00dull);
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.status, PointStatus::Ok);
    EXPECT_EQ(back.attempts, 1u);
    EXPECT_EQ(fingerprint(back.result), fingerprint(out.result));
    EXPECT_EQ(back.result.size, SizeClass::Small);
    EXPECT_EQ(back.result.counters.stallTime, 99u);
    EXPECT_EQ(back.result.counters.launches, 3u);
    EXPECT_EQ(back.result.injectCounters.stormEvictions, 17u);
    // Exact doubles survive, bit for bit.
    EXPECT_EQ(back.result.clean.allocPs, 1.0 / 3.0);
}

TEST(Journal, RecordLineRoundTripsAQuarantinedOutcome)
{
    ExperimentPoint point;
    point.workload = "gemv";
    point.mode = TransferMode::Uvm;

    PointOutcome out;
    out.ok = false;
    out.status = PointStatus::Quarantined;
    out.attempts = 2;
    out.error = "watchdog: livelock \xe2\x80\x94 spin";
    out.attemptTrail = {{PointStatus::Timeout, "watchdog: spin"},
                        {PointStatus::Timeout, "watchdog: spin"}};

    std::string line = journalRecordLine(0, 1, point, out);
    std::size_t index = 99;
    std::uint64_t hash = 0;
    PointOutcome back;
    std::string error;
    ASSERT_TRUE(parseJournalRecord(line, index, hash, back, error))
        << error;
    EXPECT_EQ(index, 0u);
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.status, PointStatus::Quarantined);
    EXPECT_EQ(back.attempts, 2u);
    EXPECT_EQ(back.error, out.error);
    ASSERT_EQ(back.attemptTrail.size(), 2u);
    EXPECT_EQ(back.attemptTrail[0].status, PointStatus::Timeout);
    EXPECT_EQ(back.attemptTrail[1].error, "watchdog: spin");
}

TEST(Journal, ConfigHashSeparatesConfigurations)
{
    std::vector<ExperimentPoint> grid = smallGrid();
    ExperimentPoint a = grid[0];
    ExperimentPoint b = a;
    EXPECT_EQ(pointConfigHash(a), pointConfigHash(b));

    b.opts.baseSeed ^= 1;
    EXPECT_NE(pointConfigHash(a), pointConfigHash(b));
    b = a;
    b.mode = TransferMode::Async;
    EXPECT_NE(pointConfigHash(a), pointConfigHash(b));
    b = a;
    b.opts.inject.migrate.stormRate = 0.25;
    EXPECT_NE(pointConfigHash(a), pointConfigHash(b));
    b = a;
    b.opts.injectSeed = 7;
    EXPECT_NE(pointConfigHash(a), pointConfigHash(b));

    // The campaign hash sees any per-point change.
    std::vector<ExperimentPoint> other = grid;
    other[3].opts.runs += 1;
    EXPECT_NE(campaignHash(grid), campaignHash(other));
}

TEST(Journal, FileIsByteIdenticalAcrossJobCounts)
{
    std::vector<ExperimentPoint> grid = smallGrid();
    std::string pathA = tmpPath("jobs1.jsonl");
    std::string pathB = tmpPath("jobs4.jsonl");

    RunPolicy policyA;
    auto journalA = RunJournal::create(pathA, grid);
    policyA.journal = journalA.get();
    ParallelRunner serial(SystemConfig::a100Epyc(), 1);
    BatchResult refBatch = serial.runPoints(grid, policyA);
    journalA.reset();

    RunPolicy policyB;
    auto journalB = RunJournal::create(pathB, grid);
    policyB.journal = journalB.get();
    ParallelRunner parallel(SystemConfig::a100Epyc(), 4);
    BatchResult gotBatch = parallel.runPoints(grid, policyB);
    journalB.reset();

    EXPECT_TRUE(refBatch.allOk());
    EXPECT_TRUE(gotBatch.allOk());
    std::string refBytes = readFile(pathA);
    EXPECT_FALSE(refBytes.empty());
    EXPECT_EQ(readFile(pathB), refBytes);

    std::remove(pathA.c_str());
    std::remove(pathB.c_str());
}

TEST(Journal, KillAndResumeIsByteIdentical)
{
    std::vector<ExperimentPoint> grid = smallGrid();
    std::string refPath = tmpPath("resume_ref.jsonl");

    // Uninterrupted serial reference: results + journal bytes.
    RunPolicy refPolicy;
    auto refJournal = RunJournal::create(refPath, grid);
    refPolicy.journal = refJournal.get();
    ParallelRunner serial(SystemConfig::a100Epyc(), 1);
    BatchResult reference = serial.runPoints(grid, refPolicy);
    refJournal.reset();
    ASSERT_TRUE(reference.allOk());
    std::string refBytes = readFile(refPath);

    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < refBytes.size()) {
        std::size_t nl = refBytes.find('\n', start);
        ASSERT_NE(nl, std::string::npos);
        lines.push_back(refBytes.substr(start, nl - start + 1));
        start = nl + 1;
    }
    ASSERT_EQ(lines.size(), grid.size() + 1); // header + records

    // Kill at every record boundary (plus a torn half-record: a
    // crash mid-append must be dropped, not trusted) and resume at
    // --jobs 4: final file bytes and every result must match the
    // uninterrupted serial run.
    for (std::size_t keep = 1; keep <= lines.size(); ++keep) {
        std::string partialPath =
            tmpPath("resume_k" + std::to_string(keep) + ".jsonl");
        std::string partial;
        for (std::size_t i = 0; i < keep; ++i)
            partial += lines[i];
        if (keep < lines.size()) {
            // Torn write: half of the next record, no newline.
            partial +=
                lines[keep].substr(0, lines[keep].size() / 2);
        }
        writeFile(partialPath, partial);

        auto journal = RunJournal::resume(partialPath, grid);
        EXPECT_EQ(journal->restoredCount(), keep - 1);
        RunPolicy policy;
        policy.journal = journal.get();
        ParallelRunner parallel(SystemConfig::a100Epyc(), 4);
        BatchResult resumed = parallel.runPoints(grid, policy);
        journal.reset();

        EXPECT_TRUE(resumed.allOk()) << "keep=" << keep;
        EXPECT_EQ(resumed.metrics.restored, keep - 1);
        EXPECT_EQ(readFile(partialPath), refBytes)
            << "keep=" << keep;
        ASSERT_EQ(resumed.points.size(), reference.points.size());
        for (std::size_t i = 0; i < resumed.points.size(); ++i) {
            EXPECT_EQ(resumed.points[i].restored, i < keep - 1);
            EXPECT_EQ(fingerprint(resumed.points[i].result),
                      fingerprint(reference.points[i].result))
                << "keep=" << keep << " point " << i;
        }
        std::remove(partialPath.c_str());
    }
    std::remove(refPath.c_str());
}

TEST(Journal, RefusesAStaleCampaign)
{
    std::vector<ExperimentPoint> grid = smallGrid();
    std::string path = tmpPath("stale.jsonl");
    RunJournal::create(path, grid).reset();

    // The same grid with one knob changed is a different campaign.
    std::vector<ExperimentPoint> changed = grid;
    changed[0].opts.baseSeed ^= 1;

    FatalThrowScope guard;
    try {
        RunJournal::resume(path, changed);
        FAIL() << "stale journal accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("different campaign"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("--resume"),
                  std::string::npos);
    }

    // Garbage is refused too, with a line number.
    writeFile(path, frameRecord(journalHeaderLine(grid)) + "not json\n");
    try {
        RunJournal::resume(path, grid);
        FAIL() << "corrupt journal accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("corrupt"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(Journal, RefusesAVersion1Journal)
{
    // Version 1 had no record checksums: it is refused with an
    // actionable message, never read by a second parser.
    std::vector<ExperimentPoint> grid = smallGrid();
    std::string header = journalHeaderLine(grid);
    std::size_t version = header.find("\"version\":2");
    ASSERT_NE(version, std::string::npos);
    header[version + 10] = '1';
    PointOutcome out;
    out.status = PointStatus::Failed;
    out.attempts = 1;
    out.error = "boom";
    std::string path = tmpPath("legacy.jsonl");
    writeFile(path, header + "\n" +
                        journalRecordLine(0, pointConfigHash(grid[0]),
                                          grid[0], out) +
                        "\n");

    FatalThrowScope guard;
    try {
        RunJournal::resume(path, grid);
        FAIL() << "version-1 journal accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("format version 1"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("without --resume"),
                  std::string::npos);
    }
    EXPECT_TRUE(legacyJournal(readFile(path)));
    std::remove(path.c_str());
}

TEST(Journal, CreateRefusesAnUnwritablePath)
{
    FatalThrowScope guard;
    EXPECT_THROW(
        RunJournal::create("/nonexistent-dir/journal.jsonl",
                           smallGrid()),
        FatalError);
    EXPECT_THROW(RunJournal::resume("/nonexistent-dir/journal.jsonl",
                                    smallGrid()),
                 FatalError);
}

TEST(Journal, QuarantinedPointIsJournaledAndRestoredOnResume)
{
    ExperimentOptions opts;
    opts.size = SizeClass::Tiny;
    opts.runs = 1;
    std::vector<ExperimentPoint> points = {
        {"vector_seq", TransferMode::Standard, opts},
        {"no_such_workload", TransferMode::Uvm, opts},
        {"saxpy", TransferMode::Async, opts},
    };
    std::string path = tmpPath("quarantine.jsonl");

    RunPolicy policy;
    policy.retries = 1;
    auto journal = RunJournal::create(path, points);
    policy.journal = journal.get();
    ParallelRunner runner(SystemConfig::a100Epyc(), 2);
    BatchResult batch = runner.runPoints(points, policy);
    journal.reset();

    ASSERT_EQ(batch.points.size(), 3u);
    EXPECT_EQ(batch.points[1].status, PointStatus::Quarantined);
    EXPECT_EQ(batch.points[1].attempts, 2u);
    EXPECT_EQ(batch.quarantined(), 1u);
    EXPECT_TRUE(batch.degraded());
    std::string bytes = readFile(path);

    // Resume restores the quarantined record verbatim instead of
    // burning time re-failing it, and appends nothing.
    auto resumed = RunJournal::resume(path, points);
    EXPECT_EQ(resumed->restoredCount(), 3u);
    RunPolicy resumePolicy;
    resumePolicy.journal = resumed.get();
    BatchResult second = runner.runPoints(points, resumePolicy);
    resumed.reset();
    EXPECT_EQ(second.metrics.restored, 3u);
    EXPECT_EQ(second.points[1].status, PointStatus::Quarantined);
    ASSERT_EQ(second.points[1].attemptTrail.size(), 2u);
    EXPECT_NE(second.points[1].attemptTrail[0].error.find(
                  "no_such_workload"),
              std::string::npos);
    EXPECT_EQ(readFile(path), bytes);
    std::remove(path.c_str());
}

} // namespace
} // namespace uvmasync
