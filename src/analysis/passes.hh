/**
 * @file
 * Static-analysis passes over a fully-loaded simulation model.
 *
 * A pass inspects the SystemConfig and/or a Job *without running it*
 * and reports Diagnostics; the PassManager owns a pipeline of passes
 * and runs them in registration order. All the checks here are pure
 * functions of the model — no simulation state is created, so a full
 * lint of the 21-workload registry takes milliseconds.
 */

#ifndef UVMASYNC_ANALYSIS_PASSES_HH
#define UVMASYNC_ANALYSIS_PASSES_HH

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/cost_model.hh"
#include "analysis/diagnostic.hh"
#include "common/kv_config.hh"
#include "gpu/transfer_mode.hh"
#include "runtime/job.hh"
#include "runtime/system_config.hh"

namespace uvmasync
{

/** Everything a pass may look at. Absent parts are skipped. */
struct LintContext
{
    const SystemConfig *system = nullptr;

    /** The job under analysis; config-only lints leave it null. */
    const Job *job = nullptr;

    /** KV source of the system config, for source locations. */
    const KvConfig *systemKv = nullptr;

    /** KV source of the job (jobfile path), for source locations. */
    const KvConfig *jobKv = nullptr;

    /** Transfer modes the caller is about to run under, when known;
     * the mode-aware advisory (UAL020) is evaluated for each. Empty
     * when the lint is mode-agnostic (jobfile lint, --all-workloads
     * sweeps). */
    std::vector<TransferMode> modes;

    /** Human-readable model name ("gemm @ super", "file.ini"). */
    std::string subject;

    /** Where the cost-advisor pass leaves the report it priced;
     * untouched when the pass does not run or cannot price the
     * model. Set only by the lint entry points (lint.hh). */
    std::optional<CostReport> *costReport = nullptr;
};

/** One static check bundle. */
class AnalysisPass
{
  public:
    virtual ~AnalysisPass() = default;

    /** Stable pass name (CLI --pass filter). */
    virtual const char *name() const = 0;

    /** One-line description for --list-passes. */
    virtual const char *description() const = 0;

    virtual void run(const LintContext &ctx,
                     DiagnosticEngine &diags) const = 0;
};

/** Ordered pipeline of passes. */
class PassManager
{
  public:
    void add(std::unique_ptr<AnalysisPass> pass);

    /** Run every pass (or only @p only, when non-empty). */
    void run(const LintContext &ctx, DiagnosticEngine &diags,
             const std::vector<std::string> &only = {}) const;

    /** Registered pass names, pipeline order. */
    std::vector<std::string> names() const;

    const std::vector<std::unique_ptr<AnalysisPass>> &passes() const
    {
        return passes_;
    }

    /** The full built-in pipeline, pipeline order. */
    static PassManager standardPipeline();

  private:
    std::vector<std::unique_ptr<AnalysisPass>> passes_;
};

/**
 * Report UAL013 (unknown key, with a did-you-mean hint) and UAL014
 * (shadowed key) findings for @p kv against @p knownKeys. Used both
 * by the kv-keys pass and by the loaders' strict paths.
 */
void checkKvKeys(const KvConfig &kv,
                 const std::set<std::string> &knownKeys,
                 const std::string &scope, DiagnosticEngine &diags);

/**
 * The key set a job description file may use, derived from the
 * buffer/kernel sections present in @p kv (buffer.N.*, kernel.N.*).
 */
std::set<std::string> knownJobFileKeys(const KvConfig &kv);

} // namespace uvmasync

#endif // UVMASYNC_ANALYSIS_PASSES_HH
