#include "journal/journal.hh"

#include "common/logging.hh"
#include "common/stable_hash.hh"
#include "io/record_log.hh"
#include "journal/json.hh"
#include "workloads/size_class.hh"

namespace uvmasync
{

namespace
{

constexpr int journalVersion = 2;

/** How every journal header line starts, in any format version. */
constexpr const char journalMagicPrefix[] = "{\"journal\":\"uvmasync\"";

bool
parsePointStatus(const std::string &text, PointStatus &out)
{
    for (PointStatus s :
         {PointStatus::Ok, PointStatus::Aborted, PointStatus::Timeout,
          PointStatus::Failed, PointStatus::Quarantined,
          PointStatus::Cancelled}) {
        if (text == pointStatusName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

void
writeBreakdown(JsonWriter &w, const TimeBreakdown &b)
{
    w.beginArray().hex(b.allocPs).hex(b.transferPs).hex(b.kernelPs)
        .endArray();
}

bool
readBreakdown(const JsonValue &v, TimeBreakdown &out)
{
    if (!v.isArray() || v.items.size() != 3)
        return false;
    return v.items[0].asHex(out.allocPs) &&
           v.items[1].asHex(out.transferPs) &&
           v.items[2].asHex(out.kernelPs);
}

// InjectCounters as a flat array — field order is part of the
// journal format (version-gated), keep it in sync with injector.hh.
// The writer and the reader share this one list.
constexpr std::uint64_t InjectCounters::*injectFields[] = {
    &InjectCounters::degradedTransfers, &InjectCounters::degradedBusyPs,
    &InjectCounters::transientFailures, &InjectCounters::retries,
    &InjectCounters::aborts,            &InjectCounters::backoffPs,
    &InjectCounters::overflowBatches,   &InjectCounters::delayedBatches,
    &InjectCounters::faultDelayPs,      &InjectCounters::backpressureEvents,
    &InjectCounters::backpressurePs,    &InjectCounters::stormEvictions,
    &InjectCounters::slowPageTransfers, &InjectCounters::jitteredLaunches,
    &InjectCounters::jitterPs};

void
writeInjectCounters(JsonWriter &w, const InjectCounters &c)
{
    w.beginArray();
    for (auto field : injectFields)
        w.value(c.*field);
    w.endArray();
}

bool
readInjectCounters(const JsonValue &v, InjectCounters &out)
{
    if (!v.isArray() || v.items.size() != std::size(injectFields))
        return false;
    for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (!v.items[i].asUint(out.*injectFields[i]))
            return false;
    }
    return true;
}

/** Parse a current-version header payload; false + @p error if not. */
bool
parseJournalHeader(const std::string &payload, std::uint64_t &campaign,
                   std::size_t &points, std::string &error)
{
    JsonValue v;
    if (!parseJson(payload, v, error))
        return false;
    const JsonValue *magic = v.find("journal");
    if (!magic || !magic->isString() || magic->text != "uvmasync") {
        error = "not a journal header";
        return false;
    }
    const JsonValue *version = v.find("version");
    std::uint64_t ver = 0;
    if (!version || !version->asUint(ver) ||
        ver != static_cast<std::uint64_t>(journalVersion)) {
        error = strfmt("format version %s, this build reads %d",
                       version ? version->text.c_str() : "?",
                       journalVersion);
        return false;
    }
    const JsonValue *camp = v.find("campaign");
    const JsonValue *pts = v.find("points");
    std::uint64_t count = 0;
    if (!camp || !camp->isString() ||
        !parseHexU64(camp->text, campaign) || !pts ||
        !pts->asUint(count)) {
        error = "missing/invalid 'campaign'/'points'";
        return false;
    }
    points = static_cast<std::size_t>(count);
    return true;
}

} // namespace

void
writeResultJson(JsonWriter &w, const ExperimentResult &r)
{
    w.beginObject();
    w.key("workload").value(r.workload);
    w.key("mode").value(transferModeName(r.mode));
    w.key("size").value(sizeClassName(r.size));
    w.key("clean");
    writeBreakdown(w, r.clean);
    w.key("runs").beginArray();
    for (const TimeBreakdown &b : r.runs)
        writeBreakdown(w, b);
    w.endArray();
    const RunCounters &c = r.counters;
    w.key("counters").beginObject();
    w.key("instrs")
        .beginArray()
        .hex(c.instrs.memory)
        .hex(c.instrs.fp)
        .hex(c.instrs.integer)
        .hex(c.instrs.control)
        .endArray();
    w.key("faults").value(c.faults);
    w.key("l1_load").hex(c.l1LoadMissRate);
    w.key("l1_store").hex(c.l1StoreMissRate);
    w.key("occupancy").hex(c.occupancy);
    w.key("stall").value(c.stallTime);
    w.key("bytes_h2d").value(c.bytesH2d);
    w.key("bytes_d2h").value(c.bytesD2h);
    w.key("launches").value(c.launches);
    w.endObject();
    w.key("inject");
    writeInjectCounters(w, r.injectCounters);
    w.endObject();
}

bool
readResultJson(const JsonValue &v, ExperimentResult &out)
{
    if (!v.isObject())
        return false;
    const JsonValue *workload = v.find("workload");
    const JsonValue *mode = v.find("mode");
    const JsonValue *size = v.find("size");
    const JsonValue *clean = v.find("clean");
    const JsonValue *runs = v.find("runs");
    const JsonValue *counters = v.find("counters");
    const JsonValue *inject = v.find("inject");
    if (!workload || !workload->isString() || !mode ||
        !mode->isString() || !size || !size->isString() || !clean ||
        !runs || !runs->isArray() || !counters ||
        !counters->isObject() || !inject)
        return false;
    out.workload = workload->text;
    if (!parseTransferMode(mode->text, out.mode))
        return false;
    if (!parseSizeClass(size->text, out.size))
        return false;
    if (!readBreakdown(*clean, out.clean))
        return false;
    out.runs.clear();
    out.runs.reserve(runs->items.size());
    for (const JsonValue &item : runs->items) {
        TimeBreakdown b;
        if (!readBreakdown(item, b))
            return false;
        out.runs.push_back(b);
    }
    RunCounters &c = out.counters;
    const JsonValue *instrs = counters->find("instrs");
    if (!instrs || !instrs->isArray() || instrs->items.size() != 4 ||
        !instrs->items[0].asHex(c.instrs.memory) ||
        !instrs->items[1].asHex(c.instrs.fp) ||
        !instrs->items[2].asHex(c.instrs.integer) ||
        !instrs->items[3].asHex(c.instrs.control))
        return false;
    const JsonValue *faults = counters->find("faults");
    const JsonValue *l1Load = counters->find("l1_load");
    const JsonValue *l1Store = counters->find("l1_store");
    const JsonValue *occupancy = counters->find("occupancy");
    const JsonValue *stall = counters->find("stall");
    const JsonValue *bytesH2d = counters->find("bytes_h2d");
    const JsonValue *bytesD2h = counters->find("bytes_d2h");
    const JsonValue *launches = counters->find("launches");
    if (!faults || !faults->asUint(c.faults) || !l1Load ||
        !l1Load->asHex(c.l1LoadMissRate) || !l1Store ||
        !l1Store->asHex(c.l1StoreMissRate) || !occupancy ||
        !occupancy->asHex(c.occupancy) || !stall ||
        !stall->asUint(c.stallTime) || !bytesH2d ||
        !bytesH2d->asUint(c.bytesH2d) || !bytesD2h ||
        !bytesD2h->asUint(c.bytesD2h) || !launches ||
        !launches->asUint(c.launches))
        return false;
    return readInjectCounters(*inject, out.injectCounters);
}

std::uint64_t
pointConfigHash(const ExperimentPoint &point)
{
    StableHasher h;
    h.str(point.workload);
    h.str(transferModeName(point.mode));
    const ExperimentOptions &o = point.opts;
    h.str(sizeClassName(o.size));
    h.u64(o.runs);
    h.u64(o.baseSeed);
    h.u64(o.sharedCarveout);
    h.u64(o.geometry.gridBlocks);
    h.u64(o.geometry.threadsPerBlock);
    h.u64(static_cast<std::uint64_t>(o.lint));
    h.u64(o.trace ? 1 : 0);
    h.u64(o.traceCategories);
    h.u64(o.injectSeed);
    const InjectPlan &p = o.inject;
    h.u64(p.seed);
    h.f64(p.pcie.degradeFactor);
    h.u64(p.pcie.window.startPs);
    h.u64(p.pcie.window.endPs);
    h.u64(p.pcie.stutterPeriodPs);
    h.f64(p.pcie.stutterDuty);
    h.f64(p.pcie.failRate);
    h.u64(p.pcie.maxRetries);
    h.u64(p.pcie.backoffBasePs);
    h.u64(p.fault.batchOverflow);
    h.u64(p.fault.overflowPenaltyPs);
    h.f64(p.fault.delayRate);
    h.u64(p.fault.delayPs);
    h.f64(p.migrate.backpressureRate);
    h.u64(p.migrate.backpressurePs);
    h.f64(p.migrate.stormRate);
    h.u64(p.migrate.stormChunks);
    h.f64(p.host.slowRate);
    h.f64(p.host.slowFactor);
    h.u64(p.host.window.startPs);
    h.u64(p.host.window.endPs);
    h.f64(p.kernel.jitterRate);
    h.u64(p.kernel.jitterPs);
    if (point.jobFile)
        h.u64(point.jobFile->contentHash);
    return h.hash();
}

std::uint64_t
campaignHash(const std::vector<ExperimentPoint> &points)
{
    StableHasher h;
    for (const ExperimentPoint &point : points)
        h.u64(pointConfigHash(point));
    return h.hash();
}

std::string
journalHeaderLine(const std::vector<ExperimentPoint> &points)
{
    JsonWriter w;
    w.beginObject();
    w.key("journal").value("uvmasync");
    w.key("version").value(
        static_cast<std::uint64_t>(journalVersion));
    w.key("campaign").value(hexU64(campaignHash(points)));
    w.key("points").value(static_cast<std::uint64_t>(points.size()));
    w.endObject();
    return w.str();
}

std::string
journalRecordLine(std::size_t index, std::uint64_t configHash,
                  const ExperimentPoint &point,
                  const PointOutcome &outcome)
{
    JsonWriter w;
    w.beginObject();
    w.key("point").value(static_cast<std::uint64_t>(index));
    w.key("config").value(hexU64(configHash));
    w.key("key").value(point.workload + "/" +
                       transferModeName(point.mode));
    w.key("status").value(pointStatusName(outcome.status));
    w.key("attempts").value(
        static_cast<std::uint64_t>(outcome.attempts));
    if (!outcome.attemptTrail.empty()) {
        w.key("trail").beginArray();
        for (const PointAttempt &attempt : outcome.attemptTrail) {
            w.beginObject();
            w.key("status").value(pointStatusName(attempt.status));
            w.key("error").value(attempt.error);
            w.endObject();
        }
        w.endArray();
    }
    if (outcome.ok) {
        w.key("result");
        writeResultJson(w, outcome.result);
    } else {
        w.key("error").value(outcome.error);
    }
    w.endObject();
    return w.str();
}

bool
parseJournalRecord(const std::string &line, std::size_t &index,
                   std::uint64_t &configHash, PointOutcome &outcome,
                   std::string &error)
{
    JsonValue v;
    if (!parseJson(line, v, error))
        return false;
    if (!v.isObject()) {
        error = "record is not an object";
        return false;
    }
    const JsonValue *point = v.find("point");
    const JsonValue *config = v.find("config");
    const JsonValue *status = v.find("status");
    const JsonValue *attempts = v.find("attempts");
    std::uint64_t idx = 0;
    if (!point || !point->asUint(idx)) {
        error = "missing/invalid 'point'";
        return false;
    }
    index = static_cast<std::size_t>(idx);
    if (!config || !config->isString() ||
        !parseHexU64(config->text, configHash)) {
        error = "missing/invalid 'config'";
        return false;
    }
    outcome = PointOutcome{};
    if (!status || !status->isString() ||
        !parsePointStatus(status->text, outcome.status)) {
        error = "missing/invalid 'status'";
        return false;
    }
    std::uint64_t att = 0;
    if (!attempts || !attempts->asUint(att)) {
        error = "missing/invalid 'attempts'";
        return false;
    }
    outcome.attempts = static_cast<std::uint32_t>(att);
    if (const JsonValue *trail = v.find("trail")) {
        if (!trail->isArray()) {
            error = "invalid 'trail'";
            return false;
        }
        for (const JsonValue &item : trail->items) {
            const JsonValue *st = item.find("status");
            const JsonValue *err = item.find("error");
            PointAttempt attempt;
            if (!st || !st->isString() ||
                !parsePointStatus(st->text, attempt.status) || !err ||
                !err->isString()) {
                error = "invalid 'trail' entry";
                return false;
            }
            attempt.error = err->text;
            outcome.attemptTrail.push_back(std::move(attempt));
        }
    }
    if (outcome.status == PointStatus::Ok) {
        const JsonValue *result = v.find("result");
        if (!result || !readResultJson(*result, outcome.result)) {
            error = "missing/invalid 'result'";
            return false;
        }
        outcome.ok = true;
    } else {
        const JsonValue *err = v.find("error");
        if (!err || !err->isString()) {
            error = "missing/invalid 'error'";
            return false;
        }
        outcome.error = err->text;
    }
    return true;
}

bool
legacyJournal(const std::string &contents)
{
    return contents.compare(0, sizeof(journalMagicPrefix) - 1,
                            journalMagicPrefix) == 0;
}

JournalScan
scanJournal(const std::string &contents,
            const std::vector<ExperimentPoint> *grid)
{
    JournalScan scan;
    if (legacyJournal(contents)) {
        scan.header = JournalHeader::Version1;
        return scan;
    }
    // A final line without '\n' was cut mid-append by a crash: the
    // record log never returns it.
    scan.log = scanRecordLog(contents);
    const std::vector<LogRecord> &lines = scan.log.records;
    if (lines.empty())
        return scan;
    const LogRecord &head = lines[0];
    scan.error = head.error;
    if (grid && head.ok() && head.payload == journalHeaderLine(*grid)) {
        scan.points = grid->size();
    } else if (!head.ok() ||
               !parseJournalHeader(head.payload, scan.campaign,
                                   scan.points, scan.error)) {
        scan.header = JournalHeader::Unusable;
        return scan;
    } else if (grid) {
        scan.header = JournalHeader::OtherCampaign;
        return scan;
    }
    scan.header = JournalHeader::Ok;

    // On the first bad record nothing from there on can be trusted.
    for (std::size_t i = 1; i < lines.size(); ++i) {
        JournalRecord rec;
        rec.line = i;
        std::uint64_t configHash = 0;
        std::string error = lines[i].error;
        if (lines[i].ok())
            parseJournalRecord(lines[i].payload, rec.point, configHash,
                               rec.outcome, error);
        if (!error.empty())
            scan.fault = JournalFault::Corrupt;
        else if (rec.point >= scan.points)
            scan.fault = JournalFault::OutsideGrid;
        else if (grid && configHash != pointConfigHash((*grid)[rec.point]))
            scan.fault = JournalFault::OtherConfig;
        if (scan.fault != JournalFault::None) {
            scan.faultLine = i;
            scan.faultPoint = rec.point;
            scan.error = error;
            break;
        }
        scan.records.push_back(std::move(rec));
    }
    scan.goodEnd = scan.fault != JournalFault::None
                       ? lines[scan.faultLine].offset
                       : contents.size() - scan.log.tornBytes;
    return scan;
}

RunJournal::RunJournal(const std::string &path,
                       const std::vector<ExperimentPoint> &points,
                       IoEnv &env)
    : path_(path), log_(env, path, RecordAppender::Durability::Sync),
      points_(points), restored_(points.size())
{
    configHashes_.reserve(points.size());
    for (const ExperimentPoint &point : points)
        configHashes_.push_back(pointConfigHash(point));
}

std::unique_ptr<RunJournal>
RunJournal::create(const std::string &path,
                   const std::vector<ExperimentPoint> &points,
                   IoEnv &env)
{
    std::unique_ptr<RunJournal> journal(
        new RunJournal(path, points, env));
    IoStatus st = journal->log_.open(0);
    if (!st.ok)
        fatal("journal: cannot open '%s' for writing: %s",
              path.c_str(), st.text().c_str());
    st = journal->log_.append(journalHeaderLine(points));
    if (!st.ok)
        fatal("journal: cannot write header of '%s': %s",
              path.c_str(), st.text().c_str());
    return journal;
}

std::unique_ptr<RunJournal>
RunJournal::resume(const std::string &path,
                   const std::vector<ExperimentPoint> &points,
                   IoEnv &env)
{
    std::string contents;
    IoStatus readSt = env.readFile(path, contents);
    if (!readSt.ok)
        fatal("journal: cannot open '%s' for resume: %s",
              path.c_str(), readSt.text().c_str());
    JournalScan scan = scanJournal(contents, &points);
    switch (scan.header) {
      case JournalHeader::Ok:
        break;
      case JournalHeader::Version1:
        fatal("journal: '%s' was written in format version 1, which "
              "has no record checksums; this build resumes only "
              "version %d. Rerun without --resume (or delete the "
              "journal) to start fresh.",
              path.c_str(), journalVersion);
      case JournalHeader::Missing:
        fatal("journal: '%s' has no intact header line; delete it "
              "and rerun without --resume",
              path.c_str());
      case JournalHeader::OtherCampaign:
        fatal("journal: '%s' was written for a different "
              "campaign (journal campaign %s, current grid %s "
              "over %zu points); the workload grid, options, or "
              "inject plan changed. Rerun without --resume (or "
              "delete the journal) to start fresh.",
              path.c_str(), hexU64(scan.campaign).c_str(),
              hexU64(campaignHash(points)).c_str(), points.size());
      case JournalHeader::Unusable:
        fatal("journal: '%s' line 1 is not a usable journal header "
              "(%s); delete it and rerun without --resume",
              path.c_str(), scan.error.c_str());
    }
    if (scan.fault == JournalFault::Corrupt)
        fatal("journal: '%s' line %zu is corrupt (%s), so no "
              "record from there on can be trusted. Run "
              "`uvmasync fsck --repair %s` to cut the journal "
              "back to its intact records, then resume again.",
              path.c_str(), scan.faultLine + 1, scan.error.c_str(),
              path.c_str());
    if (scan.fault != JournalFault::None)
        fatal("journal: '%s' line %zu records point %zu with a "
              "different configuration than the current grid; "
              "rerun without --resume to start fresh",
              path.c_str(), scan.faultLine + 1, scan.faultPoint);

    std::unique_ptr<RunJournal> journal(
        new RunJournal(path, points, env));
    for (JournalRecord &rec : scan.records) {
        if (!journal->restored_[rec.point])
            ++journal->restoredCount_;
        journal->restored_[rec.point] =
            std::make_unique<PointOutcome>(std::move(rec.outcome));
    }

    // Append after the last intact record. Intact records keep their
    // exact bytes, so an interrupted-then-resumed journal is
    // byte-identical to an uninterrupted one.
    IoStatus st = journal->log_.open(scan.goodEnd);
    if (!st.ok)
        fatal("journal: cannot reopen '%s' for appending: %s",
              path.c_str(), st.text().c_str());
    return journal;
}

RunJournal::~RunJournal() = default;

bool
RunJournal::restore(std::size_t index, PointOutcome &out)
{
    UVMASYNC_ASSERT(index < restored_.size(), "point index out of range");
    if (!restored_[index])
        return false;
    out = std::move(*restored_[index]);
    restored_[index].reset();
    UVMASYNC_ASSERT(restoredCount_ > 0, "restore underflow");
    --restoredCount_;
    return true;
}

bool
RunJournal::commit(std::size_t index, PointOutcome &out)
{
    UVMASYNC_ASSERT(index < points_.size(), "point index out of range");
    if (log_.failed())
        return false; // sticky: one hard error ends journaling
    return log_
        .append(journalRecordLine(index, configHashes_[index],
                                  points_[index], out))
        .ok;
}

} // namespace uvmasync
