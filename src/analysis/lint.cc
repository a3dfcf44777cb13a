#include "analysis/lint.hh"

#include <algorithm>
#include <mutex>
#include <set>

#include "common/logging.hh"
#include "common/table.hh"
#include "inject/inject_plan.hh"

namespace uvmasync
{

namespace
{

/** Findings enforceLint has already printed this process: a jobfile
 * swept over many points lints identically every time, and repeating
 * the same diagnostic per point buries the signal. Keyed on the full
 * rendered identity so distinct findings always print. */
std::mutex printedLintMutex;
std::set<std::string> printedLintFindings;

bool
firstPrint(std::string key)
{
    std::lock_guard<std::mutex> lock(printedLintMutex);
    return printedLintFindings.insert(std::move(key)).second;
}

bool
firstPrint(const Diagnostic &d)
{
    return firstPrint(std::string(d.code()) + "|" + d.loc.toString() +
                      "|" + d.subject + "|" + d.message);
}

/** The campaign advisor's one-line verdict, once per subject. */
void
printAdvisorLine(const CostReport &rep, const std::string &subject)
{
    if (logLevel() < LogLevel::Inform ||
        !firstPrint("advisor|" + subject))
        return;
    inform("advisor: %s — predicted winner %s, async/uvm = %s (%s); "
           "`uvmasync-lint --analyze` prints the full cost table",
           subject.c_str(), transferModeName(rep.bestMode),
           fmtDouble(rep.asyncOverUvm, 2).c_str(),
           rep.asyncOverUvm > 1.0 ? "uvm family predicted ahead"
                                  : "explicit family predicted ahead");
}

DiagnosticEngine
runPipeline(const LintContext &ctx, const LintOptions &opts)
{
    DiagnosticEngine diags;
    PassManager::standardPipeline().run(ctx, diags, opts.passes);
    if (opts.warningsAsErrors) {
        for (Diagnostic &d : diags.all()) {
            if (d.severity == Severity::Warn)
                d.severity = Severity::Error;
        }
    }
    return diags;
}

LintContext
jobContext(const SystemConfig &system, const Job &job,
           const std::string &subject, const KvConfig *systemKv,
           const KvConfig *jobKv, const TransferMode *transferMode)
{
    LintContext ctx;
    ctx.system = &system;
    ctx.job = &job;
    ctx.systemKv = systemKv;
    ctx.jobKv = jobKv;
    if (transferMode)
        ctx.modes.push_back(*transferMode);
    ctx.subject = subject.empty() ? job.name : subject;
    return ctx;
}

/** Every standard pass but the cost advisor. */
const std::vector<std::string> &
structuralPasses()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> all =
            PassManager::standardPipeline().names();
        std::erase(all, std::string("cost-advisor"));
        return all;
    }();
    return names;
}

/** Lint, print each finding once per process, and refuse to run on
 * errors under Enforce. */
DiagnosticEngine
gate(const LintContext &ctx, const LintOptions &opts, LintMode mode)
{
    if (mode == LintMode::Off)
        return DiagnosticEngine{};

    DiagnosticEngine diags = runPipeline(ctx, opts);
    if (diags.empty())
        return diags;

    for (const Diagnostic &d : diags.all()) {
        if (d.severity == Severity::Note &&
            logLevel() < LogLevel::Inform)
            continue;
        if (!firstPrint(d))
            continue;
        if (d.severity == Severity::Error && mode != LintMode::Enforce)
            warn("%s", d.format().c_str());
        else if (d.severity == Severity::Warn)
            warn("%s", d.format().c_str());
        else if (d.severity == Severity::Note)
            inform("%s", d.format().c_str());
    }

    if (mode == LintMode::Enforce && diags.hasErrors()) {
        std::string listing;
        for (const Diagnostic &d : diags.all()) {
            if (d.severity != Severity::Error)
                continue;
            listing += "\n  " + d.format();
        }
        fatal("model lint failed for %s (%s):%s\n"
              "(re-run with --lint warn to simulate anyway, or "
              "--lint off to skip the linter)",
              ctx.subject.c_str(), diags.summary().c_str(),
              listing.c_str());
    }
    return diags;
}

} // namespace

DiagnosticEngine
lintSystemConfig(const SystemConfig &system, const KvConfig *systemKv,
                 const LintOptions &opts)
{
    LintContext ctx;
    ctx.system = &system;
    ctx.systemKv = systemKv;
    ctx.subject = systemKv && !systemKv->sourceName().empty()
                      ? systemKv->sourceName()
                      : "system config";
    return runPipeline(ctx, opts);
}

DiagnosticEngine
lintJob(const SystemConfig &system, const Job &job,
        const std::string &subject, const KvConfig *systemKv,
        const KvConfig *jobKv, const LintOptions &opts,
        const TransferMode *transferMode,
        std::optional<CostReport> *costReport)
{
    LintContext ctx =
        jobContext(system, job, subject, systemKv, jobKv, transferMode);
    ctx.costReport = costReport;
    return runPipeline(ctx, opts);
}

DiagnosticEngine
enforceLint(const SystemConfig &system, const Job &job,
            const std::string &subject, LintMode mode,
            const KvConfig *systemKv, const KvConfig *jobKv,
            const TransferMode *transferMode)
{
    return gate(jobContext(system, job, subject, systemKv, jobKv,
                           transferMode),
                {}, mode);
}

DiagnosticEngine
enforceBatchLint(const SystemConfig &system, const Job &job,
                 const std::string &subject, LintMode mode,
                 const std::vector<TransferMode> &pricedModes)
{
    LintContext ctx =
        jobContext(system, job, subject, nullptr, nullptr, nullptr);
    ctx.modes = pricedModes;
    std::optional<CostReport> report;
    LintOptions opts;
    if (pricedModes.empty())
        opts.passes = structuralPasses();
    else
        ctx.costReport = &report;
    DiagnosticEngine diags = gate(ctx, opts, mode);
    if (report)
        printAdvisorLine(*report, ctx.subject);
    return diags;
}

DiagnosticEngine
lintInjectPlan(const KvConfig &kv, const LintOptions &opts)
{
    DiagnosticEngine diags;
    const std::string subject = kv.sourceName();
    const std::vector<std::string> &known = knownInjectKeys();

    auto locate = [&](Diagnostic &d, const std::string &key) {
        d.loc.file = kv.sourceName();
        d.loc.line = kv.lineOf(key);
    };

    // Unknown keys are the generic UAL013 (with did-you-mean), same
    // as every other config surface.
    for (const std::string &key : kv.keys()) {
        if (std::binary_search(known.begin(), known.end(), key))
            continue;
        Diagnostic &d = diags.report(
            DiagId::UnknownConfigKey, subject,
            "unknown injection-plan key '" + key + "'");
        std::string close = closestKey(key, known);
        if (!close.empty())
            d.hint = "did you mean '" + close + "'?";
        locate(d, key);
    }

    for (const KvShadowedKey &shadow : kv.shadowedKeys()) {
        Diagnostic &d = diags.report(
            DiagId::ShadowedConfigKey, subject,
            strfmt("key '%s' assigned on line %d shadows the "
                   "assignment on line %d",
                   shadow.key.c_str(), shadow.line,
                   shadow.firstLine));
        locate(d, shadow.key);
    }

    std::vector<InjectIssue> issues;
    InjectPlan plan = InjectPlan::parse(kv, issues);
    for (const InjectIssue &issue : issues) {
        // parse() also flags unknown keys; those are already UAL013.
        if (!std::binary_search(known.begin(), known.end(),
                                issue.key)) {
            continue;
        }
        Diagnostic &d =
            diags.report(DiagId::BadInjectParam, subject,
                         "'" + issue.key + "': " + issue.message);
        locate(d, issue.key);
    }

    if (diags.empty() && !plan.enabled()) {
        diags.report(DiagId::InertInjectPlan, subject,
                     "plan parses cleanly but no seam can fire");
    }

    if (opts.warningsAsErrors) {
        for (Diagnostic &d : diags.all()) {
            if (d.severity == Severity::Warn)
                d.severity = Severity::Error;
        }
    }
    return diags;
}

void
resetLintPrintDedup()
{
    std::lock_guard<std::mutex> lock(printedLintMutex);
    printedLintFindings.clear();
}

bool
parseLintMode(const std::string &name, LintMode &out)
{
    if (name == "off")
        out = LintMode::Off;
    else if (name == "warn")
        out = LintMode::Warn;
    else if (name == "enforce")
        out = LintMode::Enforce;
    else
        return false;
    return true;
}

} // namespace uvmasync
