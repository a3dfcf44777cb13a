/**
 * @file
 * Runtime side of the fault-injection layer.
 *
 * One Injector belongs to one job execution, exactly like a Tracer:
 * the Device hands the same instance to every seam (PcieLink,
 * FaultHandler, MigrationEngine, HostMemory, KernelExecutor) through
 * a raw pointer that is null when injection is off, so the disabled
 * path is a single predictable branch.
 *
 * Determinism: each seam draws from its *own* RNG stream, seeded by
 * hashing the plan salt with the seam's stream index (the counter-
 * derived discipline the parallel runner uses for experiment points).
 * Seam A consuming a draw therefore never shifts seam B's sequence,
 * and a job's perturbations depend only on (plan seed, point seed) —
 * never on scheduling — so `--jobs N` replays byte-identically.
 *
 * Every injected event is also recorded: counters always, and when a
 * Tracer is attached, spans/instants under TraceCategory::Inject so
 * perturbations are visible in Perfetto exports and trace metrics.
 */

#ifndef UVMASYNC_INJECT_INJECTOR_HH
#define UVMASYNC_INJECT_INJECTOR_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/rng.hh"
#include "common/types.hh"
#include "inject/inject_plan.hh"
#include "trace/trace.hh"

namespace uvmasync
{

/**
 * Thrown when an injected transient transfer failure exhausts its
 * retry budget. Experiment/ParallelRunner catch it and fail the one
 * job with a structured error instead of taking down the batch.
 */
class TransferAborted : public std::runtime_error
{
  public:
    TransferAborted(std::string what, Tick when,
                    std::uint32_t attempts)
        : std::runtime_error(std::move(what)), when_(when),
          attempts_(attempts)
    {
    }

    Tick when() const { return when_; }
    std::uint32_t attempts() const { return attempts_; }

  private:
    Tick when_;
    std::uint32_t attempts_;
};

/** Aggregate tally of everything an Injector did during one job. */
struct InjectCounters
{
    std::uint64_t degradedTransfers = 0; //!< transfers hit by degrade
    Tick degradedBusyPs = 0;       //!< link busy while degraded
    std::uint64_t transientFailures = 0; //!< injected failures
    std::uint64_t retries = 0;           //!< failures that retried
    std::uint64_t aborts = 0;            //!< retry budgets exhausted
    Tick backoffPs = 0;                  //!< total backoff waited
    std::uint64_t overflowBatches = 0;   //!< batches closed early
    std::uint64_t delayedBatches = 0;    //!< batches serviced late
    Tick faultDelayPs = 0;               //!< total batch delay added
    std::uint64_t backpressureEvents = 0;
    Tick backpressurePs = 0;
    std::uint64_t stormEvictions = 0; //!< chunks thrashed by storms
    std::uint64_t slowPageTransfers = 0;
    std::uint64_t jitteredLaunches = 0;
    Tick jitterPs = 0;
};

/**
 * Salt combining the injection seed with the experiment point's base
 * seed, so distinct points perturb independently while staying a pure
 * function of their options (parallel-replay safe).
 */
std::uint64_t injectSalt(std::uint64_t injectSeed,
                         std::uint64_t pointSeed);

/**
 * Draws perturbations from a validated InjectPlan. Not thread-safe;
 * one instance per job execution.
 */
class Injector
{
  public:
    Injector(const InjectPlan &plan, std::uint64_t salt);

    /** True when the plan can perturb anything. */
    bool enabled() const { return enabled_; }

    const InjectCounters &counters() const { return counters_; }

    /**
     * Attach a tracer. @p instantLane hosts the point events (retries,
     * jitter, storms); @p h2dLane / @p d2hLane host degraded-window
     * occupancy spans per transfer direction (separate lanes keep the
     * per-lane monotone-start invariant, since h2d and d2h windows
     * interleave). Pass null to detach.
     */
    void setTrace(Tracer *tracer, std::uint32_t instantLane,
                  std::uint32_t h2dLane, std::uint32_t d2hLane);

    // --- PCIe link seam -------------------------------------------

    /**
     * Roll for transient failures of a transfer issued at @p now.
     * Each failure waits an exponential backoff (base * 2^attempt)
     * and retries; returns the tick the transfer finally issues at.
     * Throws TransferAborted when the budget is exhausted.
     */
    Tick applyTransferFaults(Tick now, Bytes bytes,
                             const char *kindName);

    /**
     * Link slowdown factor (>= 1) for a transfer issued at @p now;
     * 1 outside degradation/stutter windows. Sampled at issue time:
     * a transfer keeps the mode the link was in when it queued.
     */
    double degradeFactor(Tick now) const;

    /** Record a transfer that ran degraded (span on h2d/d2h lane). */
    void noteDegradedTransfer(Tick start, Tick end, double factor,
                              bool h2d);

    // --- FaultHandler seam ----------------------------------------

    /** Effective fault-batch capacity under injected overflow. */
    std::uint32_t clampBatchSize(std::uint32_t configured) const;

    /** Replay penalty for a batch that closed by overflow. */
    Tick overflowPenalty(Tick when);

    /** Roll for delayed servicing of a batch opening at @p when. */
    Tick batchOpenDelay(Tick when);

    // --- MigrationEngine seam -------------------------------------

    /** Roll for driver backpressure on a migration at @p when. */
    Tick migrationBackpressure(Tick when);

    /** True when eviction storms are configured (forces LRU on). */
    bool stormsEnabled() const;

    /** Roll for an eviction storm; returns chunks to thrash (0 = no). */
    std::uint32_t drawEvictionStorm();

    /** Record a storm that evicted @p chunks ending at @p when. */
    void noteEvictionStorm(Tick when, std::uint32_t chunks);

    // --- HostMemory seam ------------------------------------------

    /**
     * Host-path speed factor in (0, 1] for a transfer at @p now; a
     * slow-page hit returns 1/slowFactor (host DIMM serves slower).
     */
    double hostSlowFactor(Tick now);

    // --- KernelExecutor seam --------------------------------------

    /** Roll for launch jitter at @p when; returns extra latency. */
    Tick launchJitter(Tick when);

  private:
    /** One independent RNG stream per seam. */
    enum Stream : std::uint64_t
    {
        StreamPcie = 0,
        StreamFault = 1,
        StreamMigrate = 2,
        StreamHost = 3,
        StreamKernel = 4,
    };

    static Rng streamRng(std::uint64_t salt, Stream stream);

    InjectPlan plan_;
    bool enabled_;
    Rng pcieRng_;
    Rng faultRng_;
    Rng migrateRng_;
    Rng hostRng_;
    Rng kernelRng_;
    InjectCounters counters_;
    Tracer *tracer_ = nullptr;
    std::uint32_t instantLane_ = 0;
    std::uint32_t h2dLane_ = 0;
    std::uint32_t d2hLane_ = 0;
};

} // namespace uvmasync

#endif // UVMASYNC_INJECT_INJECTOR_HH
