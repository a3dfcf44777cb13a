/**
 * @file
 * Declarative fault-injection plans (`inject.*` KV keys).
 *
 * A plan describes *what* adversity to inject at each simulator seam;
 * the Injector (injector.hh) decides *when*, drawing from seeded RNG
 * streams. Plans are plain KV configs so chaos scenarios live next to
 * job files, compose per job, and replay identically at any --jobs
 * count. A default-constructed plan is inert: every rate is zero and
 * every factor is 1, and enabled() is false, so a simulator wired
 * with a disabled plan is byte-identical to one with no injection at
 * all (the golden-trace tests pin this).
 *
 * Validation is strict: malformed windows (end before start),
 * negative rates or durations, probabilities outside [0, 1] and
 * factors below 1 are configuration errors, never silently clamped.
 * fromKv() fatals with the offending key and source line; parse()
 * collects the same issues non-fatally for the lint pass (UAL016).
 */

#ifndef UVMASYNC_INJECT_INJECT_PLAN_HH
#define UVMASYNC_INJECT_INJECT_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/kv_config.hh"
#include "common/types.hh"

namespace uvmasync
{

/** A [start, end) tick window; end == 0 means open-ended. */
struct InjectWindow
{
    Tick startPs = 0;
    Tick endPs = 0;

    /** True when @p t falls inside the window. */
    bool
    covers(Tick t) const
    {
        return t >= startPs && (endPs == 0 || t < endPs);
    }
};

/** PCIe link perturbations ([inject.pcie]). */
struct InjectPcie
{
    /** Bandwidth degradation factor (>= 1) inside the window. */
    double degradeFactor = 1.0;

    /** When the degradation applies; default covers the whole run. */
    InjectWindow window;

    /**
     * Optional stutter: within the window the link alternates between
     * degraded (a `stutterDuty` share of each period) and nominal.
     * 0 means the whole window is degraded.
     */
    Tick stutterPeriodPs = 0;
    double stutterDuty = 0.5;

    /** Probability a transfer attempt transiently fails. */
    double failRate = 0.0;

    /** Retry budget before the transfer aborts the job. */
    std::uint32_t maxRetries = 3;

    /** First retry backoff; doubles per attempt (exponential). */
    Tick backoffBasePs = 0;
};

/** Fault-handler perturbations ([inject.fault]). */
struct InjectFault
{
    /**
     * Injected fault-buffer capacity: batches overflow (close early)
     * at this size when it is below the configured maxBatchSize.
     * 0 disables the override.
     */
    std::uint32_t batchOverflow = 0;

    /** Replay penalty charged when a batch closes by overflow. */
    Tick overflowPenaltyPs = 0;

    /** Probability a newly opened batch is serviced late. */
    double delayRate = 0.0;

    /** Extra servicing delay for a delayed batch. */
    Tick delayPs = 0;
};

/** Migration-engine perturbations ([inject.migrate]). */
struct InjectMigrate
{
    /** Probability a chunk migration hits driver backpressure. */
    double backpressureRate = 0.0;

    /** Stall charged to a backpressured migration. */
    Tick backpressurePs = 0;

    /** Probability a migration triggers an eviction storm. */
    double stormRate = 0.0;

    /** Resident chunks thrashed out per storm. */
    std::uint32_t stormChunks = 2;
};

/** Host-DIMM perturbations ([inject.host]). */
struct InjectHost
{
    /** Probability a transfer inside the window hits a slow page. */
    double slowRate = 0.0;

    /** Host-path slowdown (>= 1) for a slow-page transfer. */
    double slowFactor = 2.0;

    /** When slow pages occur; default covers the whole run. */
    InjectWindow window;
};

/** Kernel-launch perturbations ([inject.kernel]). */
struct InjectKernel
{
    /** Probability a launch is jittered. */
    double jitterRate = 0.0;

    /** Maximum extra launch latency; actual is uniform in [0, max]. */
    Tick jitterPs = 0;
};

/** One semantic problem found while parsing a plan. */
struct InjectIssue
{
    std::string key;     //!< offending `inject.*` key ("" = plan-wide)
    std::string message; //!< what is wrong and what is legal
};

/** A complete, validated injection plan. */
struct InjectPlan
{
    /** Base seed of the injector's RNG streams ([inject] seed). */
    std::uint64_t seed = 0;

    InjectPcie pcie;
    InjectFault fault;
    InjectMigrate migrate;
    InjectHost host;
    InjectKernel kernel;

    /**
     * True when the plan can perturb anything. A false plan is
     * provably inert: the Device never attaches the injector.
     */
    bool enabled() const;

    /**
     * Parse `inject.*` keys out of @p kv, collecting every semantic
     * problem (unknown keys, malformed windows, out-of-range rates)
     * into @p issues instead of fataling. The returned plan is only
     * meaningful when @p issues stays empty.
     */
    static InjectPlan parse(const KvConfig &kv,
                            std::vector<InjectIssue> &issues);

    /** Parse and fatal() on the first issue (CLI loading path). */
    static InjectPlan fromKv(const KvConfig &kv);
};

/** Every key a plan may contain, sorted (lint did-you-mean source). */
const std::vector<std::string> &knownInjectKeys();

} // namespace uvmasync

#endif // UVMASYNC_INJECT_INJECT_PLAN_HH
