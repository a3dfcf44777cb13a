/**
 * @file
 * Closed-form per-mode cost model on top of the static dataflow walk
 * (analysis/dataflow.hh): predicted H2D/D2H traffic, demand faults
 * and fault batches, migration traffic, and the paper's three-part
 * time breakdown (alloc + transfer + kernel = overall) for every
 * transfer mode — before anything is simulated.
 *
 * The model mirrors Device::run phase by phase: the allocator charge
 * formula, the per-kind PCIe efficiency/latency arithmetic, the
 * migration engine's chunk/residency semantics (populate, demand,
 * bulk prefetch, per-launch churn, end-of-job writeback of resident
 * dirty chunks), and the kernel executor's resident-data wave
 * schedule (via KernelExecutor::estimateResident, so kernel timing
 * has a single source of truth). One analyzeCost call shares an
 * L1Memo (gpu/cache_model.hh) across its five per-mode executors, so
 * each distinct (mode, buffer uses) L1 stream is simulated once; the
 * memo dies with the call. The model's honesty is enforced by the
 * registry-wide cross-validation suite (tests/test_cost_model.cc)
 * and the committed accuracy summary it gates.
 */

#ifndef UVMASYNC_ANALYSIS_COST_MODEL_HH
#define UVMASYNC_ANALYSIS_COST_MODEL_HH

#include <array>
#include <cstdint>
#include <string>

#include "analysis/dataflow.hh"
#include "gpu/transfer_mode.hh"

namespace uvmasync
{

/** Predicted cost of running the job under one transfer mode. */
struct ModeCost
{
    TransferMode mode = TransferMode::Standard;

    /** Payload bytes over the link (what RunCounters reports). */
    Bytes h2dBytes = 0;
    Bytes d2hBytes = 0;

    /** Demand far faults and their batched servicing. */
    std::uint64_t faults = 0;
    std::uint64_t faultBatches = 0;

    /** UVM-managed traffic: demand + prefetch + churn + writeback. */
    Bytes migrationBytes = 0;

    /** The paper's breakdown (TimeBreakdown semantics). */
    double allocPs = 0.0;
    double transferPs = 0.0;
    double kernelPs = 0.0;
    double overallPs() const { return allocPs + transferPs + kernelPs; }

    /** Watchdog-visible events (link transfers + evictions). */
    std::uint64_t predictedEvents = 0;

    /** Working set exceeds capacity: steady-state re-faulting. */
    bool thrash = false;
};

/** Full advisor verdict for one job. */
struct CostReport
{
    DataflowSummary flow;

    /** Indexed by TransferMode enumeration order. */
    std::array<ModeCost, allTransferModes.size()> modes;

    /** Cheapest predicted mode overall. */
    TransferMode bestMode = TransferMode::Standard;

    /** Cheapest of the explicit-copy family (standard/async). */
    TransferMode bestExplicit = TransferMode::Standard;

    /** Cheapest of the managed family (uvm*). */
    TransferMode bestUvm = TransferMode::Uvm;

    /** Predicted async overall / predicted uvm overall: > 1 means
     * uvm wins the paper's headline comparison. */
    double asyncOverUvm = 1.0;

    const ModeCost &
    mode(TransferMode m) const
    {
        return modes[static_cast<std::size_t>(m)];
    }
};

/**
 * Run the full static cost analysis. Pure and deterministic: never
 * mutates the system config or job, consults no clock or RNG beyond
 * the seeded cache sampling shared with the simulator.
 */
CostReport analyzeCost(const SystemConfig &system, const Job &job);

/**
 * Render the --analyze cost table (one row per mode) plus the
 * advisor verdict line, matching the CLI report style.
 */
std::string renderCostReport(const CostReport &report,
                             const std::string &subject);

} // namespace uvmasync

#endif // UVMASYNC_ANALYSIS_COST_MODEL_HH
