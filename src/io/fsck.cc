#include "io/fsck.hh"

#include <algorithm>
#include <optional>

#include "common/logging.hh"
#include "io/record_log.hh"
#include "journal/journal.hh"
#include "journal/json.hh"
#include "serve/batch_spec.hh"
#include "serve/daemon.hh"
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

/**
 * Verify one journal file: scanJournal() against @p points (a daemon
 * batch's grid; null for a standalone journal), each verdict mapped
 * to a finding. Repairs truncate from the first bad record, or a torn
 * tail, (the clean prefix stays resumable) and quarantine a file with
 * an unusable header. Returns the scan, or nothing when unreadable.
 */
std::optional<JournalScan>
checkJournalFile(Ctx &ctx, const std::string &root,
                 const std::string &path,
                 const std::vector<ExperimentPoint> *points,
                 const std::string &layer)
{
    ++ctx.report.journalsChecked;
    std::string contents;
    if (!readState(ctx, layer, path, contents))
        return std::nullopt;
    JournalScan scan = scanJournal(contents, points);

    std::string problem;
    switch (scan.header) {
      case JournalHeader::Ok:
        break;
      case JournalHeader::Missing:
        problem = contents.empty() ? "empty journal (no header line)"
                                   : "no intact header line (torn header)";
        if (points) {
            addFinding(ctx, FsckSeverity::Note, layer, path,
                       problem + "; the daemon rewrites it from the "
                                 "batch payload");
            return scan;
        }
        break;
      case JournalHeader::Version1:
        problem = "format version 1 journal (no record checksums); "
                  "this build cannot resume it";
        break;
      case JournalHeader::Unusable:
        problem = (scan.log.records[0].ok() ? "not a journal header ("
                                            : "line 1 is not a journal "
                                              "header (") +
                  scan.error + ")";
        break;
      case JournalHeader::OtherCampaign:
        problem = "journal header does not match the batch payload's "
                  "point grid (campaign mismatch)";
        break;
    }
    if (!problem.empty()) {
        std::size_t f = addFinding(ctx, FsckSeverity::Damage, layer,
                                   path, problem);
        if (ctx.opt.repair)
            quarantineFile(ctx, root, path, f);
        return scan;
    }

    // On the first bad record the rest of the file cannot be trusted
    // (resume refuses it); the repair keeps the clean prefix.
    bool fault = scan.fault != JournalFault::None;
    ctx.report.recordsChecked += scan.records.size() + (fault ? 1 : 0);
    std::string point = std::to_string(scan.faultPoint);
    switch (scan.fault) {
      case JournalFault::None:
        break;
      case JournalFault::Corrupt:
        problem = "corrupt record (" + scan.error + ")";
        break;
      case JournalFault::OutsideGrid:
        problem = "records point " + point + " outside the " +
                  std::to_string(scan.points) + "-point grid";
        break;
      case JournalFault::OtherConfig:
        problem = "config hash of point " + point +
                  " does not match the batch payload";
        break;
    }
    if (fault || scan.log.tornBytes > 0) {
        std::size_t f = addFinding(
            ctx, FsckSeverity::Damage, layer, path,
            !fault ? tornMessage(scan.log)
                   : "line " + std::to_string(scan.faultLine + 1) +
                         " " + problem + "; " +
                         std::to_string(scan.log.records.size() -
                                        scan.faultLine) +
                         " record(s) from there on are untrusted");
        if (ctx.opt.repair)
            truncateRepair(ctx, path, scan.goodEnd, f);
    }
    return scan;
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

    // Meta: the store's own reader judges it (shared with `store
    // verify`); the segments are read once, below.
    std::string metaError;
    bool metaRead = false;
    bool metaOk = false;
    try {
        FatalThrowScope fatalGuard;
        metaOk = checkStoreMeta(dir, metaError, ctx.env);
        metaRead = true;
    } catch (const std::exception &e) {
        addFinding(ctx, FsckSeverity::Fatal, layer, dir, e.what());
    }
    constexpr std::size_t none = static_cast<std::size_t>(-1);
    std::size_t metaFinding = none;
    if (metaRead && !metaOk) {
        metaFinding = addFinding(
            ctx, FsckSeverity::Damage, layer, dir + "/meta.json",
            metaError.empty() ? "meta.json is unusable" : metaError);
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
    BatchListing listing;
    IoStatus ls = listBatchFiles(ctx.env, batchesDir, listing);
    if (!ls.ok) {
        addFinding(ctx, FsckSeverity::Fatal, layer, batchesDir,
                   "cannot list: " + ls.text());
        return;
    }
    for (const std::string &name : listing.unexpected)
        addFinding(ctx, FsckSeverity::Note, layer,
                   batchesDir + "/" + name,
                   "unexpected file in the batches directory");

    for (const auto &[handle, has] : listing.batches) {
        std::string payloadFile =
            batchFilePath(batchesDir, handle, BatchPayload);
        // The journal and the marker mean nothing without a payload.
        auto quarantineCompanions = [&](const std::string &message) {
            for (BatchFile file : {BatchJournal, BatchMarker}) {
                if (!has[file])
                    continue;
                std::string extra = batchFilePath(batchesDir, handle, file);
                std::size_t f = addFinding(ctx, FsckSeverity::Damage,
                                           layer, extra, message);
                if (ctx.opt.repair)
                    quarantineFile(ctx, stateDir, extra, f);
            }
        };
        if (!has[BatchPayload]) {
            // Recovery never looks at these: dead state pinning a
            // handle.
            quarantineCompanions("orphaned batch file: no payload for "
                                 "handle " + hexU64(handle));
            continue;
        }

        ++ctx.report.batchesChecked;
        std::string payload;
        if (!readState(ctx, layer, payloadFile, payload))
            continue;
        BatchSpec spec;
        std::string error;
        if (!parseBatchSpec(payload, spec, error)) {
            std::size_t f = addFinding(
                ctx, FsckSeverity::Damage, layer, payloadFile,
                "payload does not parse: " + error);
            if (ctx.opt.repair) {
                quarantineFile(ctx, stateDir, payloadFile, f);
                quarantineCompanions("batch file of a quarantined payload");
            }
            continue;
        }

        std::vector<ExperimentPoint> points = batchSpecPoints(spec);
        std::optional<JournalScan> scan;
        if (has[BatchJournal])
            scan = checkJournalFile(
                ctx, stateDir, batchFilePath(batchesDir, handle, BatchJournal),
                &points, layer);
        // Without the marker, recovery would call the batch finished.
        if (has[BatchMarker] &&
            classifyBatch(points, scan ? &*scan : nullptr, false) !=
                BatchState::Pending)
            addFinding(ctx, FsckSeverity::Note, layer,
                       batchFilePath(batchesDir, handle, BatchMarker),
                       "cancelled marker on a fully-recorded batch "
                       "(recovery will classify it cancelled)");
    }

    // Handle-sequence gaps: handles are persisted sequence numbers,
    // so a hole means state went missing (or a submit failed after
    // allocating the handle) — worth a note, not damage.
    std::uint64_t prev = 0;
    bool first = true;
    for (const auto &[handle, has] : listing.batches) {
        if (!has[BatchPayload])
            continue;
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
