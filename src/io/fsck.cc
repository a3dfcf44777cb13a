#include "io/fsck.hh"

#include <algorithm>
#include <set>

#include "common/logging.hh"
#include "io/record_log.hh"
#include "journal/journal.hh"
#include "journal/json.hh"
#include "serve/batch_spec.hh"
#include "store/result_store.hh"

namespace uvmasync
{

namespace
{

/** Shared walk state: the env, the options, and the report. */
struct Ctx
{
    IoEnv &env;
    const FsckOptions &opt;
    FsckReport &report;
};

/**
 * Record one finding; returns its index (never hold a reference —
 * later findings reallocate the vector).
 */
std::size_t
addFinding(Ctx &ctx, FsckSeverity severity, const std::string &layer,
           const std::string &path, std::string message)
{
    FsckFinding finding;
    finding.severity = severity;
    finding.layer = layer;
    finding.path = path;
    finding.message = std::move(message);
    ctx.report.findings.push_back(std::move(finding));
    return ctx.report.findings.size() - 1;
}

void
markRepaired(Ctx &ctx, std::size_t finding)
{
    ctx.report.findings[finding].repaired = true;
    ++ctx.report.repairsApplied;
}

/** A repair step that itself failed: escalate to unrecoverable. */
void
repairFailed(Ctx &ctx, const std::string &layer,
             const std::string &path, const std::string &what,
             const IoStatus &st)
{
    addFinding(ctx, FsckSeverity::Fatal, layer, path,
               "repair failed: " + what + ": " + st.text());
}

std::string
baseName(const std::string &path)
{
    std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path
                                      : path.substr(slash + 1);
}

std::string
parentDir(const std::string &path)
{
    std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string(".")
                                      : path.substr(0, slash);
}

/**
 * Move @p path into <root>/quarantine/ (never delete: the bytes may
 * still matter to a human). Marks @p finding repaired on success.
 */
void
quarantineFile(Ctx &ctx, const std::string &root,
               const std::string &path, std::size_t finding)
{
    std::string layer = ctx.report.findings[finding].layer;
    std::string qdir = root + "/quarantine";
    IoStatus st = ctx.env.makeDir(qdir);
    if (!st.ok) {
        repairFailed(ctx, layer, path,
                     "cannot create '" + qdir + "'", st);
        return;
    }
    std::string target = qdir + "/" + baseName(path);
    st = ctx.env.renameFile(path, target);
    if (!st.ok) {
        repairFailed(ctx, layer, path,
                     "cannot quarantine to '" + target + "'", st);
        return;
    }
    ++ctx.report.quarantined;
    markRepaired(ctx, finding);
}

/** Truncate @p path to @p size; marks @p finding repaired. */
void
truncateRepair(Ctx &ctx, const std::string &path, std::uint64_t size,
               std::size_t finding)
{
    std::string layer = ctx.report.findings[finding].layer;
    IoStatus st = ctx.env.truncateFile(path, size);
    if (!st.ok) {
        repairFailed(ctx, layer, path, "cannot truncate", st);
        return;
    }
    markRepaired(ctx, finding);
}

/** Read @p path; false (with a Fatal finding) when unreadable. */
bool
readState(Ctx &ctx, const std::string &layer, const std::string &path,
          std::string &contents)
{
    IoStatus rd = ctx.env.readFile(path, contents);
    if (!rd.ok)
        addFinding(ctx, FsckSeverity::Fatal, layer, path,
                   "cannot read: " + rd.text());
    return rd.ok;
}

std::string
tornMessage(const RecordScan &scan)
{
    return "torn trailing record (" + std::to_string(scan.tornBytes) +
           " byte(s) past the last intact line)";
}

/** What one journal walk learned (for cross-layer checks). */
struct JournalScan
{
    bool usable = false;          //!< header made sense
    std::size_t distinct = 0;     //!< distinct point indices recorded
};

/**
 * Verify one journal file. With @p points the header must equal
 * journalHeaderLine(points) and every record's config hash must
 * match its point (the serve cross-layer check); without, the header
 * is parsed for its point count. Repairs: from the first bad record
 * on, and a torn tail, are truncated away (the clean prefix stays a
 * valid resumable journal); an unusable header quarantines the file.
 */
JournalScan
checkJournalFile(Ctx &ctx, const std::string &root,
                 const std::string &path,
                 const std::vector<ExperimentPoint> *points,
                 const std::string &layer)
{
    JournalScan result;
    ++ctx.report.journalsChecked;
    std::string contents;
    if (!readState(ctx, layer, path, contents))
        return result;
    RecordScan scan = scanRecordLog(contents);

    // Header: the exact payload the grid produces when we have one,
    // a parseable current-version header otherwise.
    std::string problem;
    std::size_t gridPoints = points ? points->size() : 0;
    if (scan.records.empty()) {
        problem = contents.empty() ? "empty journal (no header line)"
                                   : "no intact header line (torn header)";
    } else if (legacyJournal(contents)) {
        problem = "format version 1 journal (no record checksums); "
                  "this build cannot resume it";
    } else if (!scan.records[0].ok()) {
        problem = "line 1 is not a journal header (" +
                  scan.records[0].error + ")";
    } else if (points) {
        if (scan.records[0].payload != journalHeaderLine(*points))
            problem = "journal header does not match the batch "
                      "payload's point grid (campaign mismatch)";
    } else {
        std::uint64_t campaign = 0;
        std::string error;
        if (!parseJournalHeader(scan.records[0].payload, campaign,
                                gridPoints, error))
            problem = "not a journal header (" + error + ")";
    }
    if (!problem.empty()) {
        std::size_t f = addFinding(ctx, FsckSeverity::Damage, layer,
                                   path, problem);
        if (ctx.opt.repair)
            quarantineFile(ctx, root, path, f);
        return result;
    }
    result.usable = true;

    // Records. On the first bad one the rest of the file cannot be
    // trusted (resume refuses it); the repair keeps the clean prefix
    // and truncates from the bad record on.
    std::set<std::size_t> seen;
    for (std::size_t i = 1; i < scan.records.size(); ++i) {
        ++ctx.report.recordsChecked;
        const LogRecord &rec = scan.records[i];
        std::size_t index = 0;
        std::uint64_t configHash = 0;
        PointOutcome outcome;
        std::string error = rec.error;
        if (rec.ok())
            parseJournalRecord(rec.payload, index, configHash, outcome,
                               error);
        if (!error.empty()) {
            problem = "corrupt record (" + error + ")";
        } else if (index >= gridPoints) {
            problem = "records point " + std::to_string(index) +
                      " outside the " + std::to_string(gridPoints) +
                      "-point grid";
        } else if (points &&
                   configHash != pointConfigHash((*points)[index])) {
            problem = "config hash of point " + std::to_string(index) +
                      " does not match the batch payload";
        }
        if (!problem.empty()) {
            std::size_t f = addFinding(
                ctx, FsckSeverity::Damage, layer, path,
                "line " + std::to_string(i + 1) + " " + problem +
                    "; " + std::to_string(scan.records.size() - i) +
                    " record(s) from there on are untrusted");
            if (ctx.opt.repair)
                truncateRepair(ctx, path, rec.offset, f);
            return result;
        }
        seen.insert(index);
    }
    result.distinct = seen.size();

    if (scan.tornBytes > 0) {
        std::size_t f = addFinding(ctx, FsckSeverity::Damage, layer,
                                   path, tornMessage(scan));
        if (ctx.opt.repair)
            truncateRepair(ctx, path, scan.intactEnd, f);
    }
    return result;
}

/**
 * Verify one result-store directory: meta.json parses, every segment
 * header matches its shard, every record passes its checksum and
 * parses, no torn tails. Repair quarantines a copy of every damaged
 * segment (bad headers move wholesale), then runs gcStore() to
 * rewrite the survivors intact-records-only and persist a repaired
 * meta.json.
 */
void
checkStoreDir(Ctx &ctx, const std::string &dir)
{
    ++ctx.report.storesChecked;
    const std::string layer = "store";

    // Meta: surveyStore owns the parse (shared with `store verify`).
    StoreSurvey survey;
    bool surveyed = false;
    try {
        FatalThrowScope fatalGuard;
        survey = surveyStore(dir, ctx.env);
        surveyed = true;
    } catch (const std::exception &e) {
        addFinding(ctx, FsckSeverity::Fatal, layer, dir, e.what());
    }
    constexpr std::size_t none = static_cast<std::size_t>(-1);
    std::size_t metaFinding = none;
    if (surveyed && !survey.metaOk) {
        metaFinding = addFinding(
            ctx, FsckSeverity::Damage, layer, dir + "/meta.json",
            survey.metaError.empty() ? "meta.json is unusable"
                                     : survey.metaError);
    }

    // Segments, one finding per file.
    std::vector<std::size_t> rewriteFindings;
    bool needGc = false;
    for (const auto &[shard, path] : storeSegmentFiles(dir, ctx.env)) {
        std::string contents;
        if (!readState(ctx, layer, path, contents))
            continue;
        StoreSegment seg = scanStoreSegment(contents, shard);

        if (!seg.headerOk) {
            std::size_t f = addFinding(
                ctx, FsckSeverity::Damage, layer, path,
                seg.log.records.empty()
                    ? "segment has no intact header line"
                    : "segment header does not match shard " +
                          std::to_string(shard));
            if (ctx.opt.repair)
                quarantineFile(ctx, dir, path, f);
            continue;
        }
        ctx.report.recordsChecked += seg.log.records.size() - 1;
        if (seg.corrupt > 0) {
            std::size_t f = addFinding(
                ctx, FsckSeverity::Damage, layer, path,
                std::to_string(seg.corrupt) +
                    " record(s) fail checksum/parse (first: " +
                    seg.firstError + ")");
            if (ctx.opt.repair) {
                // Preserve the damaged bytes before gcStore drops
                // the bad records from the live segment.
                IoStatus st = ctx.env.makeDir(dir + "/quarantine");
                if (st.ok)
                    st = ctx.env.writeFileDurable(
                        dir + "/quarantine/" + baseName(path), contents);
                if (!st.ok) {
                    repairFailed(ctx, layer, path,
                                 "cannot quarantine a copy", st);
                } else {
                    ++ctx.report.quarantined;
                    rewriteFindings.push_back(f);
                    needGc = true;
                }
            }
        }
        if (seg.log.tornBytes > 0) {
            std::size_t f = addFinding(ctx, FsckSeverity::Damage,
                                       layer, path,
                                       tornMessage(seg.log));
            if (ctx.opt.repair) {
                rewriteFindings.push_back(f);
                needGc = true;
            }
        }
    }
    if (metaFinding != none && ctx.opt.repair)
        needGc = true;

    if (ctx.opt.repair && needGc) {
        // One rewrite pass drops what the findings flagged and
        // persists a consistent meta.json (`store gc` machinery).
        try {
            FatalThrowScope fatalGuard;
            gcStore(dir, 0, ctx.env);
            for (std::size_t f : rewriteFindings)
                markRepaired(ctx, f);
            if (metaFinding != none)
                markRepaired(ctx, metaFinding);
        } catch (const std::exception &e) {
            addFinding(ctx, FsckSeverity::Fatal, layer, dir,
                       std::string("repair failed: ") + e.what());
        }
    }
}

/**
 * Verify one daemon state directory: payloads parse, each batch
 * journal matches its payload's grid, markers/journals have owning
 * payloads, the handle sequence has no silent gaps, and a cancelled
 * marker does not contradict a fully-recorded batch.
 */
void
checkServeDir(Ctx &ctx, const std::string &stateDir)
{
    const std::string layer = "serve";
    std::string batchesDir = stateDir + "/batches";
    std::vector<std::string> names;
    IoStatus ls = ctx.env.listDir(batchesDir, names);
    if (!ls.ok) {
        addFinding(ctx, FsckSeverity::Fatal, layer, batchesDir,
                   "cannot list: " + ls.text());
        return;
    }

    std::set<std::uint64_t> payloads;
    std::set<std::uint64_t> journals;
    std::set<std::uint64_t> markers;
    for (const std::string &name : names) {
        std::uint64_t handle = 0;
        std::string ext =
            name.size() > 16 ? name.substr(16) : std::string();
        if (name.size() > 17 && name[16] == '.' &&
            parseHexU64(name.substr(0, 16), handle)) {
            if (ext == ".kv") {
                payloads.insert(handle);
                continue;
            }
            if (ext == ".jsonl") {
                journals.insert(handle);
                continue;
            }
            if (ext == ".cancelled") {
                markers.insert(handle);
                continue;
            }
        }
        addFinding(ctx, FsckSeverity::Note, layer,
                   batchesDir + "/" + name,
                   "unexpected file in the batches directory");
    }

    std::set<std::uint64_t> all;
    all.insert(payloads.begin(), payloads.end());
    all.insert(journals.begin(), journals.end());
    all.insert(markers.begin(), markers.end());

    for (std::uint64_t handle : all) {
        std::string stem = batchesDir + "/" + hexU64(handle);
        std::string payloadFile = stem + ".kv";
        std::string journalFile = stem + ".jsonl";
        std::string markerFile = stem + ".cancelled";

        if (!payloads.count(handle)) {
            // Journal/marker without a payload: recovery would never
            // look at them — dead state pinning a handle.
            for (const std::string &orphan :
                 {journalFile, markerFile}) {
                if (!ctx.env.exists(orphan))
                    continue;
                std::size_t f = addFinding(
                    ctx, FsckSeverity::Damage, layer, orphan,
                    "orphaned batch file: no payload for handle " +
                        hexU64(handle));
                if (ctx.opt.repair)
                    quarantineFile(ctx, stateDir, orphan, f);
            }
            continue;
        }

        ++ctx.report.batchesChecked;
        std::string payload;
        IoStatus rd = ctx.env.readFile(payloadFile, payload);
        if (!rd.ok) {
            addFinding(ctx, FsckSeverity::Fatal, layer, payloadFile,
                       "cannot read: " + rd.text());
            continue;
        }
        BatchSpec spec;
        std::string error;
        if (!parseBatchSpec(payload, spec, error)) {
            std::size_t f = addFinding(
                ctx, FsckSeverity::Damage, layer, payloadFile,
                "payload does not parse: " + error);
            if (ctx.opt.repair) {
                quarantineFile(ctx, stateDir, payloadFile, f);
                // Its journal and marker are meaningless without
                // the payload — quarantine them along.
                for (const std::string &extra :
                     {journalFile, markerFile}) {
                    if (!ctx.env.exists(extra))
                        continue;
                    std::size_t fe = addFinding(
                        ctx, FsckSeverity::Damage, layer, extra,
                        "batch file of a quarantined payload");
                    quarantineFile(ctx, stateDir, extra, fe);
                }
            }
            continue;
        }

        std::vector<ExperimentPoint> points = batchSpecPoints(spec);
        JournalScan scan;
        if (journals.count(handle))
            scan = checkJournalFile(ctx, stateDir, journalFile,
                                    &points, layer);

        if (markers.count(handle) && scan.usable &&
            !points.empty() && scan.distinct >= points.size()) {
            addFinding(ctx, FsckSeverity::Note, layer, markerFile,
                       "cancelled marker on a fully-recorded batch "
                       "(recovery will classify it cancelled)");
        }
    }

    // Handle-sequence gaps: handles are persisted sequence numbers,
    // so a hole means state went missing (or a submit failed after
    // allocating the handle) — worth a note, not damage.
    std::uint64_t prev = 0;
    bool first = true;
    for (std::uint64_t handle : payloads) {
        if (!first && handle > prev + 1) {
            addFinding(ctx, FsckSeverity::Note, layer, batchesDir,
                       "handle sequence gap between " +
                           hexU64(prev) + " and " + hexU64(handle));
        }
        prev = handle;
        first = false;
    }
}

} // namespace

const char *
fsckSeverityName(FsckSeverity severity)
{
    switch (severity) {
      case FsckSeverity::Note: return "note";
      case FsckSeverity::Damage: return "damage";
      case FsckSeverity::Fatal: return "fatal";
    }
    panic("unknown fsck severity %d", static_cast<int>(severity));
}

int
FsckReport::exitCode() const
{
    int code = 0;
    for (const FsckFinding &finding : findings) {
        if (finding.severity == FsckSeverity::Fatal)
            return 2;
        if (finding.severity == FsckSeverity::Damage &&
            !finding.repaired)
            code = std::max(code, 1);
    }
    return code;
}

FsckReport
fsckPath(const std::string &path, const FsckOptions &opt, IoEnv &env)
{
    FsckReport report;
    Ctx ctx{env, opt, report};

    if (!env.exists(path)) {
        addFinding(ctx, FsckSeverity::Fatal, "fsck", path,
                   "no such file or directory");
        return report;
    }

    std::vector<std::string> names;
    bool isDir = env.listDir(path, names).ok;
    if (!isDir) {
        checkJournalFile(ctx, parentDir(path), path, nullptr,
                         "journal");
        return report;
    }

    bool recognized = false;
    if (env.exists(path + "/batches")) {
        checkServeDir(ctx, path);
        recognized = true;
    }
    if (env.exists(path + "/meta.json") ||
        env.exists(path + "/shards")) {
        checkStoreDir(ctx, path);
        recognized = true;
    }
    if (!recognized) {
        addFinding(ctx, FsckSeverity::Fatal, "fsck", path,
                   "not a daemon state directory, a result store, "
                   "or a journal file");
    }
    return report;
}

TextTable
fsckSummaryTable(const FsckReport &report)
{
    std::size_t notes = 0;
    std::size_t damage = 0;
    std::size_t fatals = 0;
    for (const FsckFinding &finding : report.findings) {
        switch (finding.severity) {
          case FsckSeverity::Note: ++notes; break;
          case FsckSeverity::Damage: ++damage; break;
          case FsckSeverity::Fatal: ++fatals; break;
        }
    }
    TextTable table({"metric", "value"});
    auto row = [&](const char *name, std::uint64_t value) {
        table.addRow({name, std::to_string(value)});
    };
    row("journals_checked", report.journalsChecked);
    row("stores_checked", report.storesChecked);
    row("batches_checked", report.batchesChecked);
    row("records_checked", report.recordsChecked);
    table.addSeparator();
    row("notes", notes);
    row("damage", damage);
    row("fatal", fatals);
    row("repairs_applied", report.repairsApplied);
    row("quarantined", report.quarantined);
    return table;
}

std::string
fsckFindingLine(const FsckFinding &finding)
{
    std::string line = fsckSeverityName(finding.severity);
    line += " [";
    line += finding.layer;
    line += "] ";
    line += finding.path;
    line += ": ";
    line += finding.message;
    if (finding.repaired)
        line += " (repaired)";
    return line;
}

} // namespace uvmasync
