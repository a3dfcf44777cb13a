/**
 * @file
 * High-level entry points of the static model linter ("uvmasync
 * lint"): run the standard pass pipeline over a system config and/or
 * a job and decide whether the model is fit to simulate.
 */

#ifndef UVMASYNC_ANALYSIS_LINT_HH
#define UVMASYNC_ANALYSIS_LINT_HH

#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.hh"
#include "analysis/passes.hh"

namespace uvmasync
{

/** What to do with lint findings before a simulation runs. */
enum class LintMode
{
    Off,     //!< skip the linter entirely
    Warn,    //!< print every finding, run anyway
    Enforce, //!< print every finding, refuse to run on errors
};

/** Options for a lint invocation. */
struct LintOptions
{
    /** Restrict to these pass names; empty = full pipeline. */
    std::vector<std::string> passes;

    /** Promote warnings to errors (CLI --Werror). */
    bool warningsAsErrors = false;
};

/** Lint only a system configuration (no job). */
DiagnosticEngine lintSystemConfig(const SystemConfig &system,
                                  const KvConfig *systemKv = nullptr,
                                  const LintOptions &opts = {});

/**
 * Lint a job under a system configuration; @p subject labels the
 * findings ("gemm @ super", a jobfile path, ...). When @p costReport
 * is set, the cost-advisor pass leaves the report it priced there
 * (it stays empty if the pass did not run or could not price).
 */
DiagnosticEngine lintJob(const SystemConfig &system, const Job &job,
                         const std::string &subject,
                         const KvConfig *systemKv = nullptr,
                         const KvConfig *jobKv = nullptr,
                         const LintOptions &opts = {},
                         const TransferMode *transferMode = nullptr,
                         std::optional<CostReport> *costReport = nullptr);

/**
 * Pre-run gate used by the CLI jobfile path (Experiment::run gates
 * through enforceBatchLint): lint the model under @p mode; print
 * findings via warn(); fatal() listing the errors when @p mode is
 * Enforce and any error-severity finding exists. Returns the engine
 * so callers can inspect findings.
 *
 * Printing is deduplicated process-wide on (code, location, subject,
 * message): a jobfile linted once per sweep point prints each unique
 * finding once. The returned engine always carries every finding, so
 * enforce-gate semantics are unchanged.
 */
DiagnosticEngine enforceLint(const SystemConfig &system, const Job &job,
                             const std::string &subject, LintMode mode,
                             const KvConfig *systemKv = nullptr,
                             const KvConfig *jobKv = nullptr,
                             const TransferMode *transferMode = nullptr);

/**
 * The gate of a batch that prices each job once (planLintPricing in
 * core/parallel_runner.hh): enforceLint with the dominated-mode
 * advisory (UAL020) evaluated for each of @p pricedModes. An empty
 * list runs only the structural passes, the only ones that can fail
 * the gate: the cost advisor emits notes and warnings, so skipping
 * it leaves the verdict unchanged. That is why a batch runs the
 * empty-list gate inline in every point and the priced gate, which
 * costs the most, in a task of its own per job, beside the point.
 *
 * A priced gate (non-empty list) also prints the campaign advisor
 * line ("advisor: <subject> — predicted winner ...") at inform level
 * from the report the cost-advisor pass built, once per subject per
 * process through the same dedup as the findings. Nothing prints
 * under LintMode::Off, nor when the pass could not price the model.
 */
DiagnosticEngine enforceBatchLint(const SystemConfig &system,
                                  const Job &job,
                                  const std::string &subject,
                                  LintMode mode,
                                  const std::vector<TransferMode> &pricedModes);

/** Forget which findings and advisor lines the gates have printed
 * (tests). */
void resetLintPrintDedup();

/** Parse off/warn/enforce; returns false (out untouched) if unknown. */
bool parseLintMode(const std::string &name, LintMode &out);

/**
 * Lint a fault-injection plan (`inject.*` KV config): semantic
 * parameter problems as UAL016, unknown keys as UAL013 (with
 * did-you-mean), shadowed keys as UAL014, and a valid-but-inert plan
 * as a UAL017 note.
 */
DiagnosticEngine lintInjectPlan(const KvConfig &kv,
                                const LintOptions &opts = {});

} // namespace uvmasync

#endif // UVMASYNC_ANALYSIS_LINT_HH
