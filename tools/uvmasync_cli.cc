/**
 * @file
 * Command-line driver for the simulator — the tool a downstream user
 * reaches for before writing code against the library.
 *
 *   uvmasync list [micro|apps]
 *       Print the benchmark registry (the Table 2 rows).
 *
 *   uvmasync run --workload NAME [--size CLASS] [--mode MODE|all]
 *                [--runs N] [--blocks N] [--threads N]
 *                [--carveout KIB] [--seed N] [--csv] [--jobs N]
 *                [--inject PLAN.kv] [--inject-seed N]
 *       Run one experiment cell (or all five modes) and print the
 *       breakdown and counters, as a table or as CSV. Multi-mode
 *       runs and sweeps fan out over --jobs worker threads
 *       (default: UVMASYNC_JOBS, then hardware concurrency) with
 *       byte-identical output at any job count. --inject perturbs
 *       the run with a deterministic fault-injection plan; a point
 *       whose transfers exhaust their retry budget fails with a
 *       structured error while sibling points run to completion.
 *
 *   uvmasync sweep --kind blocks|threads|sharedmem
 *                  [--workload NAME] [--size CLASS] [--csv]
 *       Run one of the paper's Section 5 sensitivity sweeps.
 *
 *   uvmasync store stats|verify|gc|invalidate --store DIR
 *       Inspect or maintain a persistent result store offline.
 *
 * Crash safety: `--journal FILE` writes an append-only, fsync'd,
 * checksummed write-ahead log of per-point outcomes in submission order
 * (byte-deterministic at any --jobs count); `--resume FILE` skips
 * the points the journal already holds — after a crash or kill the
 * merged output is byte-identical to an uninterrupted run. Failed
 * points are retried with the same seed (--retries, default 1) and
 * then quarantined: the run completes with partial results, an
 * explicit degraded-run banner, and a robustness table on stderr.
 * Output paths (--trace, --out, --journal) are opened before the
 * first simulated tick, so a bad path fails fast.
 *
 * Incremental sweeps: `--store DIR` (default: UVMASYNC_STORE env)
 * consults a persistent content-addressed result store before any
 * point simulates and appends never-seen results after — a warm
 * rerun simulates nothing yet prints byte-identical output. The
 * store composes with --journal/--resume (the journal is this run's
 * crash-safety record; the store is the cross-run cache) and is
 * keyed by both the full point configuration and a model-semantics
 * fingerprint, so a code or testbed change invalidates cleanly.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.hh"
#include "common/csv.hh"
#include "common/kv_config.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "inject/inject_plan.hh"
#include "io/fsck.hh"
#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "core/report.hh"
#include "core/sweep.hh"
#include "journal/journal.hh"
#include "journal/json.hh"
#include "runtime/config_loader.hh"
#include "serve/batch_spec.hh"
#include "serve/server.hh"
#include "store/fingerprint.hh"
#include "store/result_store.hh"
#include "runtime/device.hh"
#include "trace/chrome_export.hh"
#include "trace/metrics.hh"
#include "workloads/job_loader.hh"
#include "workloads/registry.hh"

#include "args.hh"

using namespace uvmasync;

namespace
{

/** @{ The flags each shared helper below reads. */
const std::vector<std::string> jobsFlags = {"jobs"};
const std::vector<std::string> configFlags = {"config"};
const std::vector<std::string> watchdogFlags = {
    "watchdog-max-ms", "watchdog-max-events", "watchdog-max-stall"};
const std::vector<std::string> injectFlags = {"inject", "inject-seed"};
const std::vector<std::string> journalFlags = {"journal", "resume"};
const std::vector<std::string> storeFlags = {
    "store", "store-readonly", "no-store", "store-max-bytes"};
const std::vector<std::string> retriesFlags = {"retries"};
const std::vector<std::string> outFlags = {"out"};
const std::vector<std::string> lintFlags = {"lint", "no-lint"};
const std::vector<std::string> traceFlags = {"trace", "metrics"};
const std::vector<std::string> csvFlags = {"csv"};
/** @} */

/**
 * Load --inject PLAN.kv and --inject-seed N. The plan is linted
 * before parsing so every problem is reported at once (fromKv alone
 * stops at the first); non-error findings — notably the UAL017
 * inert-plan note — print to stderr but do not block the run.
 */
void
loadInjectFlags(const Args &args, InjectPlan &plan,
                std::uint64_t &seed)
{
    seed = args.getUnsigned("inject-seed", seed);
    if (!args.has("inject"))
        return;
    KvConfig kv = KvConfig::fromFile(args.get("inject"));
    DiagnosticEngine diags = lintInjectPlan(kv);
    if (!diags.empty())
        std::cerr << diags.formatAll();
    if (diags.hasErrors()) {
        fatal("invalid injection plan '%s' (%s)",
              args.get("inject").c_str(), diags.summary().c_str());
    }
    plan = InjectPlan::fromKv(kv);
}

/**
 * Open an output destination before any simulation starts, so a bad
 * path fails in milliseconds instead of after an hours-long sweep.
 */
std::ofstream
openOutputOrDie(const std::string &path, const char *what)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open %s file '%s' for writing", what,
              path.c_str());
    return out;
}

/**
 * --out FILE (or stdout) and --trace FILE, both opened before any
 * simulation starts.
 */
class OutSink
{
  public:
    explicit OutSink(const Args &args)
    {
        if (args.has("out")) {
            file_ = openOutputOrDie(args.get("out"), "--out");
            os_ = &file_;
        }
        if (!args.get("trace").empty())
            trace_.emplace(openOutputOrDie(args.get("trace"), "--trace"));
    }

    std::ostream &os() { return os_ ? *os_ : std::cout; }

    /** Export @p results' traces to --trace, if given, as one file. */
    void
    exportTraces(const std::vector<ExperimentResult> &results)
    {
        if (!trace_)
            return;
        std::vector<ChromeTraceJob> jobs;
        for (const ExperimentResult &res : results) {
            jobs.push_back(ChromeTraceJob{
                res.workload + "/" + transferModeName(res.mode),
                &res.trace});
        }
        writeChromeTrace(*trace_, jobs);
    }

  private:
    std::ofstream file_;
    std::ostream *os_ = nullptr;
    std::optional<std::ofstream> trace_;
};

/**
 * The testbed: --config FILE (default: the paper's A100/EPYC), with
 * --watchdog-max-ms / -events / -stall overriding its ceilings.
 */
SystemConfig
systemFromFlags(const Args &args)
{
    SystemConfig system = args.has("config")
                              ? loadSystemConfig(args.get("config"))
                              : SystemConfig::a100Epyc();
    if (args.has("watchdog-max-ms")) {
        double ms = 0.0;
        if (!parseNumber(args.get("watchdog-max-ms"), ms) ||
            !(ms >= 0.0)) {
            std::fprintf(stderr,
                         "--watchdog-max-ms needs a non-negative "
                         "number, got '%s'\n",
                         args.get("watchdog-max-ms").c_str());
            std::exit(2);
        }
        system.watchdog.maxSimTime =
            static_cast<Tick>(std::llround(ms * 1e9));
    }
    system.watchdog.maxEvents = args.getUnsigned(
        "watchdog-max-events", system.watchdog.maxEvents);
    system.watchdog.maxStallEvents = args.getUnsigned(
        "watchdog-max-stall", system.watchdog.maxStallEvents);
    return system;
}

/**
 * Resolve --journal/--resume into an open RunJournal (or null). The
 * journal is opened before any simulation (fail-fast on bad paths);
 * --resume refuses traced runs because traces are not journaled, so
 * restored points could not reproduce their exports.
 */
std::unique_ptr<RunJournal>
setupJournal(const Args &args,
             const std::vector<ExperimentPoint> &points, bool traced)
{
    if (args.has("journal") && args.has("resume"))
        fatal("--journal and --resume are mutually exclusive; "
              "--resume appends to the journal it resumes from");
    if (args.has("resume")) {
        if (traced)
            fatal("--resume cannot be combined with --trace or "
                  "--metrics: traces are not journaled, so restored "
                  "points would export empty traces; rerun without "
                  "--resume for a traced run");
        std::unique_ptr<RunJournal> journal =
            RunJournal::resume(args.get("resume"), points);
        inform("resuming from '%s': %zu of %zu points already "
               "complete",
               journal->path().c_str(), journal->restoredCount(),
               points.size());
        return journal;
    }
    if (args.has("journal"))
        return RunJournal::create(args.get("journal"), points);
    return nullptr;
}

/**
 * Post-batch journal health: a hard write error (disk full, EIO)
 * makes the journal inert instead of killing the run; say so, with
 * the errno text, so the lost crash-safety is visible.
 */
void
reportJournalHealth(const RunJournal *journal, std::size_t lost)
{
    if (!journal || !journal->writeFailed())
        return;
    std::fprintf(stderr,
                 "journal: write to '%s' failed (%s); %zu record(s) "
                 "not journaled — run continued without crash "
                 "safety\n",
                 journal->path().c_str(),
                 journal->writeError().c_str(), lost);
}

/**
 * Resolve --store DIR / UVMASYNC_STORE into an open ResultStore (or
 * null when neither is set, or --no-store). The store is opened —
 * and its refusals (not a store, newer format, stale fingerprint
 * under --store-readonly) fire — before any simulation. The
 * fingerprint comes from the *effective* SystemConfig, after
 * --config and watchdog flags, so a custom testbed never shares
 * entries with the default one.
 */
std::unique_ptr<ResultStore>
setupStore(const Args &args, const SystemConfig &system)
{
    if (args.has("no-store"))
        return nullptr;
    std::string dir = storeDirFlag(args);
    if (dir.empty())
        return nullptr;
    StoreOptions opt;
    opt.readonly = args.has("store-readonly");
    opt.maxBytes = args.getUnsigned("store-max-bytes", opt.maxBytes);
    return ResultStore::open(dir, modelSemanticsFingerprint(system),
                             opt);
}

/**
 * Session hit/miss/stored summary, to stderr so the run's stdout/CSV
 * stays byte-identical whether or not a store is attached.
 */
void
reportStoreStats(const ResultStore *store)
{
    if (!store)
        return;
    printTable(std::cerr,
               strfmt("result store '%s' (this run)",
                      store->dir().c_str()),
               storeStatsTable(store->stats()));
}

/**
 * Run @p points as one batch: the one batch path of `run`,
 * `run --jobfile` and `sweep`. The journal (--journal/--resume) and
 * the store (--store) open before any point simulates; the batch
 * runs under --retries; store health, journal health and the
 * degraded-batch banner then go to stderr.
 */
BatchResult
runBatch(const Args &args, const SystemConfig &system,
         const std::vector<ExperimentPoint> &points, bool traced)
{
    std::unique_ptr<RunJournal> journal =
        setupJournal(args, points, traced);
    std::unique_ptr<ResultStore> store = setupStore(args, system);
    std::optional<StorePointCache> cache;
    if (store)
        cache.emplace(*store, points);

    RunPolicy policy;
    policy.retries = args.getUnsigned<std::uint32_t>("retries", 1);
    policy.journal = journal.get();
    policy.cache = cache ? &*cache : nullptr;
    BatchResult batch = ParallelRunner(system).runPoints(points, policy);
    reportStoreStats(store.get());
    reportJournalHealth(journal.get(), batch.metrics.journalErrors);
    // Failed points (a poisoned configuration, an injected transfer
    // that exhausted its retries, a watchdog trip) are retried, then
    // quarantined and reported individually; the surviving points
    // still print and export normally.
    reportDegradedBatch(points, batch);
    return batch;
}

/** The results of @p batch's successful points, in batch order. */
std::vector<ExperimentResult>
okResults(BatchResult &batch)
{
    std::vector<ExperimentResult> results;
    results.reserve(batch.points.size());
    for (PointOutcome &outcome : batch.points) {
        if (outcome.ok)
            results.push_back(std::move(outcome.result));
    }
    return results;
}

/** --lint off|warn|enforce (default enforce); --no-lint = off. */
bool
parseLintFlag(const Args &args, LintMode &out)
{
    out = LintMode::Enforce;
    if (args.has("no-lint")) {
        out = LintMode::Off;
        return true;
    }
    if (!args.has("lint"))
        return true;
    if (!parseLintMode(args.get("lint"), out)) {
        std::fprintf(stderr,
                     "--lint must be off, warn or enforce\n");
        return false;
    }
    return true;
}

int
cmdList(const Args &args)
{
    if (!args.onlyFlags("list", {}))
        return 2;
    WorkloadRegistry &reg = WorkloadRegistry::instance();
    std::vector<std::string> names;
    if (!args.positional().empty() &&
        args.positional()[0] == "micro")
        names = reg.names(WorkloadSuite::Micro);
    else if (!args.positional().empty() &&
             args.positional()[0] == "apps")
        names = reg.names(WorkloadSuite::App);
    else
        names = reg.names();

    TextTable table({"name", "suite", "source", "domain", "input"});
    table.setAlign(1, TextTable::Align::Left);
    table.setAlign(2, TextTable::Align::Left);
    table.setAlign(3, TextTable::Align::Left);
    table.setAlign(4, TextTable::Align::Left);
    for (const std::string &name : names) {
        const WorkloadInfo &info = reg.get(name).info();
        table.addRow({name,
                      info.suite == WorkloadSuite::Micro ? "micro"
                                                         : "apps",
                      info.source, info.domain, info.inputShape});
    }
    table.print(std::cout);
    return 0;
}

void
emitCsvHeader(CsvWriter &csv)
{
    csv.writeRow({"workload", "mode", "size", "runs", "alloc_ms",
                  "memcpy_ms", "kernel_ms", "overall_ms",
                  "overall_cv", "faults", "l1_load_miss",
                  "l1_store_miss", "occupancy", "ctrl_instrs"});
}

void
emitCsvRow(CsvWriter &csv, const ExperimentResult &res,
           std::uint32_t runs)
{
    TimeBreakdown mean = res.meanBreakdown();
    csv.writeRow({res.workload, transferModeName(res.mode),
                  sizeClassName(res.size), std::to_string(runs),
                  fmtDouble(mean.allocPs / 1e9, 4),
                  fmtDouble(mean.transferPs / 1e9, 4),
                  fmtDouble(mean.kernelPs / 1e9, 4),
                  fmtDouble(mean.overallPs() / 1e9, 4),
                  fmtDouble(res.overallSamples().cv(), 5),
                  std::to_string(res.counters.faults),
                  fmtDouble(res.counters.l1LoadMissRate, 5),
                  fmtDouble(res.counters.l1StoreMissRate, 5),
                  fmtDouble(res.counters.occupancy, 4),
                  fmtDouble(res.counters.instrs.control, 0)});
}

/**
 * What `run`, `profile` and `timeline` simulate: a registry workload
 * at --size, or the job of --jobfile, under --mode.
 */
struct Target
{
    std::string workload; //!< registry workload; empty with --jobfile
    std::string jobfile;  //!< --jobfile path; empty for a workload
    SizeClass size = SizeClass::Super;
    std::vector<TransferMode> modes;

    /** The job to simulate. */
    Job
    makeJob() const
    {
        if (!jobfile.empty())
            return loadJobFile(jobfile);
        return WorkloadRegistry::instance().get(workload).makeJob(size);
    }
};

/**
 * Resolve --workload or --jobfile, --size (default super) and --mode
 * (default @p defaultMode; "all", the five modes, only with
 * @p allowAll) for @p verb. Prints the problem and returns false on
 * a missing or unknown value.
 */
bool
resolveTarget(const Args &args, const char *verb,
              const char *defaultMode, bool allowAll, Target &out)
{
    out.workload = args.get("workload");
    out.jobfile = args.get("jobfile");
    if (out.jobfile.empty()) {
        if (out.workload.empty()) {
            std::fprintf(stderr,
                         "%s: --workload or --jobfile is required\n",
                         verb);
            return false;
        }
        if (!WorkloadRegistry::instance().find(out.workload)) {
            std::fprintf(stderr,
                         "unknown workload '%s' (try `list`)\n",
                         out.workload.c_str());
            return false;
        }
    }
    if (!parseSizeClass(args.get("size", "super"), out.size)) {
        std::fprintf(stderr, "unknown size class '%s'\n",
                     args.get("size").c_str());
        return false;
    }
    std::string modeArg = args.get("mode", defaultMode);
    TransferMode mode = TransferMode::Standard;
    if (allowAll && modeArg == "all") {
        out.modes.assign(allTransferModes.begin(),
                         allTransferModes.end());
    } else if (parseTransferMode(modeArg, mode)) {
        out.modes = {mode};
    } else {
        std::fprintf(stderr, "unknown mode '%s'\n", modeArg.c_str());
        return false;
    }
    return true;
}

/**
 * `run --jobfile`: the job file's five modes as one batch. The job
 * is linted once, up front, with its KV, so only this gate sees
 * unknown keys (UAL013/UAL014); its points skip the gate (lint off,
 * so no advisor line), simulate with seed 1 and no noisy runs, and
 * carry the file's content hash, --pinned folded in, as their
 * journal/store identity: editing the file invalidates a stale
 * journal or store entry.
 */
int
cmdRunJobFile(const Args &args, const Target &target)
{
    LintMode lint;
    if (!parseLintFlag(args, lint))
        return 1;
    std::ifstream in(target.jobfile, std::ios::binary);
    if (!in)
        fatal("cannot read job file '%s'", target.jobfile.c_str());
    std::ostringstream contents;
    contents << in.rdbuf();
    KvConfig jobKv = KvConfig::fromString(contents.str(), target.jobfile);
    DiagnosticEngine loadDiags; // re-found by the lint pipeline
    auto jobFile = std::make_shared<JobFile>();
    jobFile->job = jobFromConfig(jobKv, &loadDiags);
    jobFile->pinned = args.has("pinned");
    jobFile->contentHash =
        jobFileBaseSeed(contents.str(), jobFile->pinned);
    const Job &job = jobFile->job;
    SystemConfig system = systemFromFlags(args);
    enforceLint(system, job, target.jobfile, lint, nullptr, &jobKv);

    ExperimentOptions opts;
    opts.runs = 0;
    opts.baseSeed = RunOptions{}.seed; // what job files always ran with
    opts.lint = LintMode::Off;
    loadInjectFlags(args, opts.inject, opts.injectSeed);
    opts.trace = !args.get("trace").empty() || args.has("metrics");
    std::vector<ExperimentPoint> points;
    for (TransferMode mode : target.modes)
        points.push_back(ExperimentPoint{job.name, mode, opts, jobFile});

    OutSink out(args);
    BatchResult batch = runBatch(args, system, points, opts.trace);
    TextTable table({"mode", "gpu_kernel", "memcpy", "allocation",
                     "overall", "faults"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointOutcome &outcome = batch.points[i];
        const char *mode = transferModeName(points[i].mode);
        if (!outcome.ok) {
            table.addRow({mode, "-", "-", "-", "failed", "-"});
            continue;
        }
        const TimeBreakdown &b = outcome.result.clean;
        table.addRow({mode, fmtTime(b.kernelPs), fmtTime(b.transferPs),
                      fmtTime(b.allocPs), fmtTime(b.overallPs()),
                      fmtCount(static_cast<double>(
                          outcome.result.counters.faults))});
    }
    out.os() << job.name << " ("
             << fmtBytes(static_cast<double>(job.footprint()))
             << " footprint, from " << target.jobfile << ")\n";
    table.print(out.os());

    std::vector<ExperimentResult> results = okResults(batch);
    out.exportTraces(results);
    if (args.has("metrics")) {
        for (const ExperimentResult &res : results) {
            out.os() << "\n"
                     << res.workload << " under "
                     << transferModeName(res.mode)
                     << " — resource metrics:\n"
                     << traceMetricsTable(computeTraceMetrics(res.trace));
        }
    }
    return batch.degraded() ? 1 : 0;
}

int
cmdRun(const Args &args)
{
    bool jobfile = args.has("jobfile");
    bool known =
        jobfile ? args.onlyFlags("run --jobfile",
                                 {{"jobfile", "pinned"}, configFlags,
                                  watchdogFlags, injectFlags,
                                  journalFlags, storeFlags, outFlags,
                                  lintFlags, traceFlags})
                : args.onlyFlags("run", {{"workload", "size", "mode",
                                          "runs", "seed", "blocks",
                                          "threads", "carveout"},
                                         jobsFlags, configFlags,
                                         watchdogFlags, injectFlags,
                                         journalFlags, storeFlags,
                                         retriesFlags, outFlags,
                                         lintFlags, traceFlags,
                                         csvFlags});
    if (!known)
        return 2;
    Target target;
    if (!resolveTarget(args, "run", "all", true, target))
        return 1;
    if (jobfile)
        return cmdRunJobFile(args, target);

    ExperimentOptions opts;
    opts.size = target.size;
    opts.runs = args.getUnsigned<std::uint32_t>("runs", 30);
    opts.baseSeed = args.getUnsigned("seed", 42);
    opts.geometry.gridBlocks = args.getUnsigned("blocks", 0);
    opts.geometry.threadsPerBlock =
        args.getUnsigned<std::uint32_t>("threads", 0);
    opts.sharedCarveout = kib(args.getUnsigned("carveout", 0));
    if (!parseLintFlag(args, opts.lint))
        return 1;
    loadInjectFlags(args, opts.inject, opts.injectSeed);
    bool wantMetrics = args.has("metrics");
    opts.trace = !args.get("trace").empty() || wantMetrics;

    // --jobs N; absent (0): UVMASYNC_JOBS, then hardware concurrency.
    setGlobalJobs(args.getUnsigned<unsigned>("jobs", 0, 1));
    SystemConfig system = systemFromFlags(args);
    std::vector<ExperimentPoint> points;
    points.reserve(target.modes.size());
    for (TransferMode m : target.modes)
        points.push_back(ExperimentPoint{target.workload, m, opts});

    OutSink out(args);
    BatchResult batch = runBatch(args, system, points, opts.trace);
    std::vector<ExperimentResult> results = okResults(batch);
    out.exportTraces(results);
    int exitCode = batch.degraded() ? 1 : 0;

    if (args.has("csv")) {
        CsvWriter csv(out.os());
        emitCsvHeader(csv);
        for (const ExperimentResult &res : results)
            emitCsvRow(csv, res, opts.runs);
        if (wantMetrics) {
            for (const ExperimentResult &res : results) {
                out.os() << "\n";
                csv.writeRow({"trace_metrics", res.workload,
                              transferModeName(res.mode)});
                writeTraceMetricsCsv(out.os(),
                                     computeTraceMetrics(res.trace));
            }
        }
        return exitCode;
    }

    TextTable table({"mode", "gpu_kernel", "memcpy", "allocation",
                     "overall", "cv", "faults", "l1 load miss"});
    for (const ExperimentResult &res : results) {
        TimeBreakdown mean = res.meanBreakdown();
        table.addRow({transferModeName(res.mode),
                      fmtTime(mean.kernelPs),
                      fmtTime(mean.transferPs),
                      fmtTime(mean.allocPs),
                      fmtTime(mean.overallPs()),
                      fmtDouble(res.overallSamples().cv(), 4),
                      fmtCount(static_cast<double>(
                          res.counters.faults)),
                      fmtDouble(res.counters.l1LoadMissRate, 3)});
    }
    out.os() << target.workload << " @ " << sizeClassName(opts.size)
             << " (" << opts.runs << " runs)\n";
    table.print(out.os());
    if (wantMetrics) {
        printTable(out.os(), "per-resource trace metrics",
                   traceUtilizationTable({results}));
    }
    return exitCode;
}

int
cmdProfile(const Args &args)
{
    if (!args.onlyFlags("profile", {{"workload", "jobfile", "size",
                                     "mode"},
                                    configFlags}))
        return 2;
    Target target;
    if (!resolveTarget(args, "profile", "standard", false, target))
        return 1;
    Job job = target.makeJob();
    TransferMode mode = target.modes.front();
    Device device(systemFromFlags(args));
    RunResult run = device.run(job, mode);

    TextTable table({"kernel", "launches", "total time", "stalls",
                     "occupancy", "l1 load miss", "l1 store miss",
                     "ctrl instrs", "faults"});
    for (const KernelProfile &prof : run.kernelProfiles) {
        table.addRow(
            {prof.name, std::to_string(prof.launches),
             fmtTime(static_cast<double>(prof.totalTime)),
             fmtTime(static_cast<double>(prof.stallTime)),
             fmtDouble(prof.occupancy, 2),
             fmtDouble(prof.l1LoadMissRate, 4),
             fmtDouble(prof.l1StoreMissRate, 4),
             fmtCount(prof.instrs.control),
             fmtCount(static_cast<double>(prof.faults))});
    }
    std::cout << job.name << " under " << transferModeName(mode)
              << " — per-kernel profile (kernel total "
              << fmtTime(run.breakdown.kernelPs) << "):\n";
    table.print(std::cout);
    return 0;
}

int
cmdTimeline(const Args &args)
{
    if (!args.onlyFlags("timeline", {{"workload", "jobfile", "size",
                                      "mode"},
                                     configFlags}))
        return 2;
    Target target;
    if (!resolveTarget(args, "timeline", "all", true, target))
        return 1;
    Job job = target.makeJob();
    Device device(systemFromFlags(args));
    for (TransferMode mode : target.modes) {
        RunResult run = device.run(job, mode);
        std::cout << job.name << " under " << transferModeName(mode)
                  << " (wall "
                  << fmtTime(static_cast<double>(run.wallEnd))
                  << "):\n"
                  << run.timeline.gantt() << "\n";
    }
    return 0;
}

int
cmdSweep(const Args &args)
{
    if (!args.onlyFlags("sweep", {{"kind", "workload", "size", "runs"},
                                  jobsFlags, configFlags, watchdogFlags,
                                  injectFlags, journalFlags, storeFlags,
                                  retriesFlags, outFlags, csvFlags}))
        return 2;
    std::string kind = args.get("kind");
    std::string workload = args.get("workload", "vector_seq");
    ExperimentOptions opts;
    if (!parseSizeClass(args.get("size", "super"), opts.size)) {
        std::fprintf(stderr, "unknown size class '%s'\n",
                     args.get("size").c_str());
        return 1;
    }
    opts.runs = args.getUnsigned<std::uint32_t>("runs", 5);
    // --jobs N; absent (0): UVMASYNC_JOBS, then hardware concurrency.
    setGlobalJobs(args.getUnsigned<unsigned>("jobs", 0, 1));

    loadInjectFlags(args, opts.inject, opts.injectSeed);
    SystemConfig system = systemFromFlags(args);
    SweepGrid grid;
    std::string unit;
    if (kind == "blocks") {
        grid = blockSweepGrid(
            workload, {4096, 2048, 1024, 512, 256, 128, 64, 32, 16},
            opts);
        unit = "blocks";
    } else if (kind == "threads") {
        grid = threadSweepGrid(workload,
                               {1024, 512, 256, 128, 64, 32}, 64,
                               opts);
        unit = "threads";
    } else if (kind == "sharedmem") {
        grid = sharedMemSweepGrid(
            workload,
            {kib(2), kib(4), kib(8), kib(16), kib(32), kib(64),
             kib(128)},
            opts);
        unit = "carveout bytes";
    } else {
        std::fprintf(stderr,
                     "sweep: --kind must be blocks|threads|"
                     "sharedmem\n");
        return 1;
    }

    OutSink out(args);
    BatchResult batch =
        runBatch(args, system, grid.points, /*traced=*/false);
    bool anyFailed = batch.degraded();
    std::vector<SweepPoint> points =
        assembleSweepPoints(grid, batch);

    if (args.has("csv")) {
        CsvWriter csv(out.os());
        csv.writeRow({unit, "mode", "overall_ms"});
        for (const SweepPoint &p : points) {
            for (const ExperimentResult &res : p.modes) {
                csv.writeRow(
                    {std::to_string(p.value),
                     transferModeName(res.mode),
                     fmtDouble(res.meanBreakdown().overallPs() / 1e9,
                               4)});
            }
        }
        return anyFailed ? 1 : 0;
    }

    TextTable table({unit, "standard", "async", "uvm",
                     "uvm_prefetch", "uvm_prefetch_async"});
    for (const SweepPoint &p : points) {
        std::vector<std::string> row = {std::to_string(p.value)};
        for (TransferMode m : allTransferModes) {
            row.push_back(fmtTime(
                findMode(p.modes, m).meanBreakdown().overallPs()));
        }
        table.addRow(row);
    }
    out.os() << workload << " " << kind << " sweep @ "
             << sizeClassName(opts.size) << "\n";
    table.print(out.os());
    return anyFailed ? 1 : 0;
}

/**
 * Offline store maintenance. All subcommands walk the directory with
 * surveyStore()/gcStore()/invalidateStore() — never the simulating
 * open() path — so they work on corrupt stores (that is their job).
 */
int
cmdStore(const Args &args)
{
    if (!args.onlyFlags("store",
                        {{"store", "store-max-bytes", "fingerprint"}}))
        return 2;
    std::string op = args.positional().empty()
                         ? std::string()
                         : args.positional()[0];
    std::string dir = storeDirFlag(args);
    if (dir.empty()) {
        std::fprintf(stderr, "store: --store DIR (or the "
                             "UVMASYNC_STORE environment variable) "
                             "is required\n");
        return 1;
    }

    if (op == "stats") {
        printTable(std::cout,
                   strfmt("result store '%s'", dir.c_str()),
                   storeSurveyTable(surveyStore(dir)));
        return 0;
    }
    if (op == "verify") {
        StoreSurvey survey = surveyStore(dir);
        printTable(std::cout,
                   strfmt("result store '%s'", dir.c_str()),
                   storeSurveyTable(survey));
        if (!survey.clean()) {
            std::fprintf(stderr,
                         "store: '%s' is NOT clean (%zu corrupt "
                         "records, %zu torn tails, %zu bad headers"
                         "%s); corrupt entries are never served — "
                         "run `uvmasync store gc --store %s` to "
                         "drop them\n",
                         dir.c_str(), survey.corruptRecords,
                         survey.tornTails, survey.badHeaders,
                         survey.metaOk ? ""
                                       : ", unusable meta.json",
                         dir.c_str());
            return 1;
        }
        std::printf("store '%s' is clean\n", dir.c_str());
        return 0;
    }
    if (op == "gc") {
        StoreGcResult gc =
            gcStore(dir, args.getUnsigned("store-max-bytes", 0));
        std::printf("store '%s': dropped %zu corrupt/torn records, "
                    "evicted %llu segments (%llu bytes); %llu -> "
                    "%llu bytes\n",
                    dir.c_str(), gc.droppedRecords,
                    static_cast<unsigned long long>(
                        gc.evictedSegments),
                    static_cast<unsigned long long>(gc.evictedBytes),
                    static_cast<unsigned long long>(gc.bytesBefore),
                    static_cast<unsigned long long>(gc.bytesAfter));
        return 0;
    }
    if (op == "invalidate") {
        std::size_t dropped = 0;
        if (args.has("fingerprint")) {
            std::uint64_t fp = 0;
            if (!parseHexU64(args.get("fingerprint"), fp)) {
                std::fprintf(stderr,
                             "store: --fingerprint must be 16 hex "
                             "digits (as printed by `store "
                             "stats`)\n");
                return 1;
            }
            dropped = invalidateStore(dir, &fp);
        } else {
            dropped = invalidateStore(dir, nullptr);
        }
        std::printf("store '%s': dropped %zu records\n", dir.c_str(),
                    dropped);
        return 0;
    }

    std::fprintf(stderr, "store: unknown operation '%s' (expected "
                         "stats, verify, gc or invalidate)\n",
                 op.c_str());
    return 1;
}

/**
 * Deep-verify (and with --repair, fix) durable state: daemon state
 * directories, result stores, or standalone journal files, each
 * auto-detected. Exit 0 = consistent (possibly after repair), 1 =
 * repairable damage found, 2 = unrecoverable.
 */
int
cmdFsck(const Args &args)
{
    if (!args.onlyFlags("fsck", {{"repair"}}))
        return 2;
    FsckOptions opt;
    opt.repair = args.has("repair");
    if (args.positional().empty()) {
        std::fprintf(stderr,
                     "fsck: at least one PATH is required (a daemon "
                     "state dir, a store dir, or a journal file)\n");
        return 2;
    }

    int exitCode = 0;
    for (const std::string &path : args.positional()) {
        FsckReport report = fsckPath(path, opt);
        for (const FsckFinding &finding : report.findings)
            std::fprintf(stderr, "fsck: %s\n",
                         fsckFindingLine(finding).c_str());
        printTable(std::cout, strfmt("fsck '%s'", path.c_str()),
                   fsckSummaryTable(report));
        int code = report.exitCode();
        if (code == 0) {
            std::printf("fsck '%s': consistent%s\n", path.c_str(),
                        report.repairsApplied > 0 ? " (after repair)"
                                                  : "");
        } else {
            std::fprintf(stderr,
                         "fsck: '%s' is NOT consistent%s\n",
                         path.c_str(),
                         code == 1 && !opt.repair
                             ? "; rerun with --repair to truncate "
                               "torn tails and quarantine "
                               "unrecoverable files"
                             : "");
        }
        exitCode = std::max(exitCode, code);
    }
    return exitCode;
}

/** Build a daemon submission payload from the run-style flags. */
bool
clientBatchPayload(const Args &args, std::string &payload)
{
    std::string workload = args.get("workload");
    if (workload.empty()) {
        std::fprintf(stderr, "client: --workload is required\n");
        return false;
    }
    // Hand the flags to the daemon verbatim (as batch.* keys): the
    // daemon owns validation, so a typo'd size or mode comes back as
    // one actionable Error frame instead of a local guess.
    payload = "batch.workload = " + workload + "\n";
    payload += "batch.size = " + args.get("size", "super") + "\n";
    payload += "batch.runs = " + args.get("runs", "30") + "\n";
    payload += "batch.seed = " + args.get("seed", "42") + "\n";
    payload += "batch.mode = " + args.get("mode", "all") + "\n";
    payload += "batch.blocks = " + args.get("blocks", "0") + "\n";
    payload += "batch.threads = " + args.get("threads", "0") + "\n";
    payload +=
        "batch.carveout_kib = " + args.get("carveout", "0") + "\n";
    payload += "batch.retries = " + args.get("retries", "1") + "\n";
    return true;
}

/**
 * Client of a running campaign daemon (`uvmasync-serve`). Streams
 * print the batch's journal record payloads — submission-order
 * hexfloat JSONL, byte-identical to the record payloads `uvmasync run
 * --journal` writes for the same batch — to stdout; everything advisory
 * (handles, states, errors) goes to stderr so streams stay cmp-able.
 */
int
cmdClient(const Args &args)
{
    if (!args.onlyFlags("client",
                        {{"socket", "workload", "size", "mode", "runs",
                          "seed", "blocks", "threads", "carveout",
                          "handle", "from", "no-wait"},
                         retriesFlags}))
        return 2;
    std::string op = args.positional().empty()
                         ? std::string()
                         : args.positional()[0];
    std::string socket = args.get("socket");
    if (socket.empty()) {
        std::fprintf(stderr, "client: --socket PATH is required\n");
        return 1;
    }

    ServeClient client;
    std::string error;
    auto failed = [&] {
        std::fprintf(stderr, "client: %s\n", error.c_str());
        return 1;
    };
    if (!client.connect(socket, error))
        return failed();

    if (op == "submit" || op == "run") {
        std::string payload;
        if (!clientBatchPayload(args, payload))
            return 1;
        std::string handle;
        if (!client.submit(payload, handle, error)) {
            std::fprintf(stderr, "client: submit failed: %s\n",
                         error.c_str());
            return 1;
        }
        if (op == "submit") {
            std::printf("batch=%s\n", handle.c_str());
            return 0;
        }
        // run = submit + blocking stream: the handle goes to stderr
        // so stdout is exactly the result stream.
        std::fprintf(stderr, "batch=%s\n", handle.c_str());
        std::string lines;
        std::string state;
        if (!client.stream(handle, 0, true, lines, state, error)) {
            std::fprintf(stderr, "client: stream failed: %s\n",
                         error.c_str());
            return 1;
        }
        std::fwrite(lines.data(), 1, lines.size(), stdout);
        if (state != "done") {
            std::fprintf(stderr, "client: batch %s finished %s\n",
                         handle.c_str(), state.c_str());
            return 1;
        }
        return 0;
    }
    if (op == "status") {
        std::string reply;
        if (!client.status(args.get("handle"), reply, error))
            return failed();
        std::fwrite(reply.data(), 1, reply.size(), stdout);
        return 0;
    }
    if (op == "stream") {
        std::size_t from = args.getUnsigned<std::size_t>("from", 0);
        bool wait = !args.has("no-wait");
        std::string lines;
        std::string state;
        if (!client.stream(args.get("handle"), from, wait, lines,
                           state, error))
            return failed();
        std::fwrite(lines.data(), 1, lines.size(), stdout);
        std::fprintf(stderr, "state=%s\n", state.c_str());
        return state == "done" || !wait ? 0 : 1;
    }
    if (op == "cancel") {
        std::string state;
        if (!client.cancel(args.get("handle"), state, error))
            return failed();
        std::printf("state=%s\n", state.c_str());
        return 0;
    }
    if (op == "stats") {
        std::string reply;
        if (!client.stats(reply, error))
            return failed();
        std::fwrite(reply.data(), 1, reply.size(), stdout);
        return 0;
    }
    if (op == "shutdown")
        return client.shutdown(error) ? 0 : failed();

    std::fprintf(stderr,
                 "client: unknown operation '%s' (expected submit, "
                 "run, status, stream, cancel, stats or shutdown)\n",
                 op.c_str());
    return 1;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  uvmasync list [micro|apps]\n"
        "  uvmasync run --workload NAME [--size CLASS] "
        "[--mode MODE|all] [--runs N]\n"
        "               [--blocks N] [--threads N] [--carveout KIB] "
        "[--seed N] [--config FILE] [--csv] [--jobs N]\n"
        "               [--lint off|warn|enforce] [--no-lint]\n"
        "               [--trace FILE.json] [--metrics] "
        "[--out FILE]\n"
        "               [--inject PLAN.kv] [--inject-seed N]\n"
        "               [--journal FILE.jsonl | --resume "
        "FILE.jsonl] [--retries N]\n"
        "               [--store DIR] [--store-readonly] "
        "[--no-store] [--store-max-bytes N]\n"
        "               [--watchdog-max-ms MS] "
        "[--watchdog-max-events N] [--watchdog-max-stall N]\n"
        "  uvmasync run --jobfile FILE [--pinned] [--config FILE] "
        "[--lint off|warn|enforce]\n"
        "               [--trace FILE.json] [--metrics] [--out FILE] "
        "[--inject PLAN.kv] [--journal|--resume FILE.jsonl]\n"
        "               [--store DIR] [--watchdog-max-ms MS]\n"
        "  uvmasync sweep --kind blocks|threads|sharedmem "
        "[--workload NAME] [--size CLASS] [--csv] [--jobs N]\n"
        "               [--out FILE] [--inject PLAN.kv] "
        "[--journal FILE.jsonl | --resume FILE.jsonl] "
        "[--retries N]\n"
        "               [--store DIR] [--store-readonly] "
        "[--no-store] [--store-max-bytes N]\n"
        "  uvmasync profile --workload NAME|--jobfile FILE "
        "[--mode MODE] [--size CLASS]\n"
        "  uvmasync timeline --workload NAME|--jobfile FILE "
        "[--mode MODE|all] [--size CLASS]\n"
        "  uvmasync store stats|verify|gc|invalidate --store DIR\n"
        "               [--store-max-bytes N] [--fingerprint HEX16]\n"
        "  uvmasync fsck PATH... [--repair]\n"
        "  uvmasync client "
        "submit|run|status|stream|cancel|stats|shutdown --socket "
        "PATH\n"
        "               [--workload NAME] [--size CLASS] [--mode "
        "MODE|all] [--runs N] [--seed N]\n"
        "               [--blocks N] [--threads N] [--carveout KIB] "
        "[--retries N]\n"
        "               [--handle HEX16] [--from N] [--no-wait]\n"
        "\n"
        "crash safety: --journal FILE writes an fsync'd JSONL "
        "write-ahead log of per-point\n"
        "outcomes; --resume FILE skips the points it already holds "
        "and appends the rest.\n"
        "Failed points are retried --retries times with the same "
        "seed, then quarantined;\n"
        "the run completes with partial results and a robustness "
        "report on stderr.\n"
        "\n"
        "result store: --store DIR (default: UVMASYNC_STORE env; "
        "--no-store disables) serves\n"
        "previously simulated points from a persistent "
        "content-addressed cache and appends\n"
        "never-seen results, so a warm rerun simulates nothing yet "
        "prints byte-identical\n"
        "output. --store-readonly serves hits without writing; "
        "--store-max-bytes N evicts\n"
        "least-recently-used segments past a byte budget.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    registerAllWorkloads();

    std::string cmd = argv[1];
    Args args(argc, argv, 2);
    if (cmd == "list")
        return cmdList(args);
    if (cmd == "run")
        return cmdRun(args);
    if (cmd == "sweep")
        return cmdSweep(args);
    if (cmd == "profile")
        return cmdProfile(args);
    if (cmd == "timeline")
        return cmdTimeline(args);
    if (cmd == "store")
        return cmdStore(args);
    if (cmd == "fsck")
        return cmdFsck(args);
    if (cmd == "client")
        return cmdClient(args);
    usage();
    return 1;
}
