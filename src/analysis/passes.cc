#include "analysis/passes.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "analysis/cost_model.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "gpu/instruction_mix.hh"
#include "gpu/occupancy.hh"
#include "runtime/config_loader.hh"

namespace uvmasync
{

namespace
{

bool
isPow2(Bytes v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

std::string
bytesStr(Bytes b)
{
    return fmtBytes(static_cast<double>(b));
}

/** Attach the source line of @p key when the model came from a file. */
void
locate(Diagnostic &d, const KvConfig *kv, const std::string &key)
{
    if (!kv || !kv->has(key))
        return;
    d.loc.file = kv->sourceName();
    d.loc.line = kv->lineOf(key);
}

// --- system-config: UAL015 parameter ranges, UAL009 page geometry ----

class SystemConfigPass : public AnalysisPass
{
  public:
    const char *name() const override { return "system-config"; }
    const char *
    description() const override
    {
        return "SystemConfig parameter ranges and page/chunk "
               "geometry (UAL009, UAL015)";
    }

    void
    run(const LintContext &ctx, DiagnosticEngine &diags) const override
    {
        if (!ctx.system)
            return;
        const SystemConfig &sys = *ctx.system;
        const GpuConfig &gpu = sys.gpu;

        auto param = [&](bool bad, const char *key,
                         const std::string &detail) {
            if (!bad)
                return;
            Diagnostic &d = diags.report(DiagId::BadSystemParam,
                                         ctx.subject,
                                         std::string(key) + ": " +
                                             detail);
            locate(d, ctx.systemKv, key);
        };

        param(gpu.smCount == 0, "gpu.sm_count",
              "a GPU needs at least one SM");
        param(gpu.coresPerSm == 0 || gpu.warpSize == 0 ||
                  gpu.maxThreadsPerSm == 0 || gpu.maxWarpsPerSm == 0 ||
                  gpu.maxBlocksPerSm == 0,
              "gpu", "per-SM resource limits must all be non-zero");
        param(!(gpu.clock.hz() > 0), "gpu.clock_mhz",
              "clock must be positive");
        param(!(gpu.hbmBandwidth.gbps() > 0), "gpu.hbm_gbps",
              "HBM bandwidth must be positive");
        param(gpu.unifiedL1Bytes == 0, "gpu",
              "unified L1/shared SRAM cannot be empty");
        param(gpu.maxSharedBytes > gpu.unifiedL1Bytes, "gpu",
              "largest shared carveout (" +
                  bytesStr(gpu.maxSharedBytes) +
                  ") exceeds the unified L1/shared SRAM (" +
                  bytesStr(gpu.unifiedL1Bytes) + ")");
        param(gpu.defaultSharedCarveout > gpu.maxSharedBytes,
              "gpu.shared_carveout_kib",
              "default carveout " +
                  bytesStr(gpu.defaultSharedCarveout) +
                  " exceeds the hardware maximum " +
                  bytesStr(gpu.maxSharedBytes));

        param(!(sys.pcie.rawBandwidth.gbps() > 0), "pcie.raw_gbps",
              "link bandwidth must be positive");
        for (std::size_t k = 0; k < numTransferKinds; ++k) {
            double eff = sys.pcie.efficiency[k];
            if (!(eff > 0.0) || eff > 1.0) {
                param(true, "pcie",
                      std::string(transferKindName(
                          static_cast<TransferKind>(k))) +
                          " efficiency " + fmtDouble(eff, 3) +
                          " is outside (0, 1]");
            }
        }

        param(sys.host.dimmCount == 0 || sys.host.dimmCapacity == 0,
              "host", "host DRAM needs modules with capacity");
        param(!(sys.host.straddleThreshold > 0.0) ||
                  sys.host.straddleThreshold > 1.0,
              "host", "straddle threshold must be in (0, 1]");
        param(sys.host.straddlePenalty < 1.0, "host",
              "straddle penalty is a worst-case slowdown, >= 1");

        param(sys.deviceMemoryBytes == 0, "hbm.capacity_gib",
              "device memory capacity cannot be zero");
        param(sys.uvm.fault.maxBatchSize == 0, "uvm.fault_batch",
              "the fault handler services at least one fault per "
              "batch");
        param(!(sys.uvm.redundantPrefetchChurn >= 0.0) ||
                  sys.uvm.redundantPrefetchChurn > 1.0,
              "uvm.churn", "redundant-prefetch churn is a fraction "
                           "of the range, in [0, 1]");

        param(!(sys.noise.allocCv >= 0.0) ||
                  !(sys.noise.transferCv >= 0.0) ||
                  !(sys.noise.kernelCv >= 0.0) ||
                  !(sys.noise.systemOverheadCv >= 0.0),
              "noise", "coefficients of variation must be >= 0");

        // Page/chunk geometry (UAL009): the migration granularity
        // must tile exactly into GPU pages or PageTable setup and
        // fault accounting silently disagree.
        auto geom = [&](bool bad, Severity sev, const char *key,
                        const std::string &detail) {
            if (!bad)
                return;
            Diagnostic &d =
                diags.report(DiagId::BadPageGeometry, sev,
                             ctx.subject,
                             std::string(key) + ": " + detail);
            locate(d, ctx.systemKv, key);
        };
        geom(gpu.gpuPageBytes == 0 || !isPow2(gpu.gpuPageBytes),
             Severity::Error, "gpu",
             "GPU page size " + bytesStr(gpu.gpuPageBytes) +
                 " must be a non-zero power of two");
        geom(sys.uvm.chunkBytes == 0, Severity::Error, "uvm.chunk_kib",
             "migration chunk size cannot be zero");
        geom(sys.uvm.chunkBytes != 0 && gpu.gpuPageBytes != 0 &&
                 sys.uvm.chunkBytes % gpu.gpuPageBytes != 0,
             Severity::Error, "uvm.chunk_kib",
             "chunk size " + bytesStr(sys.uvm.chunkBytes) +
                 " is not a multiple of the GPU page size " +
                 bytesStr(gpu.gpuPageBytes));
        geom(sys.uvm.chunkBytes != 0 && !isPow2(sys.uvm.chunkBytes),
             Severity::Warn, "uvm.chunk_kib",
             "chunk size " + bytesStr(sys.uvm.chunkBytes) +
                 " is not a power of two; real drivers migrate "
                 "power-of-two basic blocks");
        geom(gpu.l1LineBytes == 0 || !isPow2(gpu.l1LineBytes),
             Severity::Error, "gpu",
             "L1 sector size " + bytesStr(gpu.l1LineBytes) +
                 " must be a non-zero power of two");
    }
};

// --- kernel-graph: UAL001-005 dataflow structure ---------------------

class KernelGraphPass : public AnalysisPass
{
  public:
    const char *name() const override { return "kernel-graph"; }
    const char *
    description() const override
    {
        return "buffer references, kernel dependency DAG, dataflow "
               "reachability (UAL001-UAL005)";
    }

    void
    run(const LintContext &ctx, DiagnosticEngine &diags) const override
    {
        if (!ctx.job)
            return;
        const Job &job = *ctx.job;
        std::size_t nBufs = job.buffers.size();
        std::size_t nKernels = job.kernels.size();

        std::vector<bool> used(nBufs, false);
        std::vector<bool> initialized(nBufs, false);
        // A buffer written by ANY kernel is initialised from the
        // second sequence iteration on: iterative jobs (srad, lud)
        // legitimately read last iteration's output before this
        // iteration rewrites it.
        std::vector<bool> writtenAnywhere(nBufs, false);
        for (const KernelDescriptor &kd : job.kernels) {
            for (const KernelBufferUse &use : kd.buffers) {
                if (use.written && use.bufferId < nBufs)
                    writtenAnywhere[use.bufferId] = true;
            }
        }
        for (std::size_t b = 0; b < nBufs; ++b) {
            initialized[b] =
                job.buffers[b].hostInit ||
                (job.sequenceRepeats > 1 && writtenAnywhere[b]);
        }

        for (std::size_t k = 0; k < nKernels; ++k) {
            const KernelDescriptor &kd = job.kernels[k];
            std::string subj = subject(ctx, kd.name, k);

            for (const KernelBufferUse &use : kd.buffers) {
                if (use.bufferId >= nBufs) {
                    Diagnostic &d = diags.report(
                        DiagId::DanglingBufferRef, subj,
                        "references buffer id " +
                            std::to_string(use.bufferId) +
                            " but the job declares only " +
                            std::to_string(nBufs) + " buffer(s)");
                    locate(d, ctx.jobKv,
                           "kernel." + std::to_string(k) +
                               ".buffers");
                    continue;
                }
                used[use.bufferId] = true;
                if (use.read && !initialized[use.bufferId]) {
                    diags.report(
                        DiagId::ReadUninitialized, subj,
                        "reads buffer '" +
                            job.buffers[use.bufferId].name +
                            "' which is neither host-initialised "
                            "nor written by an earlier kernel");
                }
            }
            // Writes become visible to *later* kernels only: a
            // kernel cannot initialise data for its own reads.
            for (const KernelBufferUse &use : kd.buffers) {
                if (use.written && use.bufferId < nBufs)
                    initialized[use.bufferId] = true;
            }

            for (std::size_t dep : kd.dependsOn) {
                if (dep >= nKernels) {
                    Diagnostic &d = diags.report(
                        DiagId::DanglingKernelDep, subj,
                        "depends on kernel index " +
                            std::to_string(dep) + " but the job has " +
                            std::to_string(nKernels) + " kernel(s)");
                    locate(d, ctx.jobKv,
                           "kernel." + std::to_string(k) +
                               ".depends");
                } else if (dep >= k) {
                    // Kernels launch in list order, so any edge to
                    // itself or to a later kernel closes a cycle
                    // with the schedule: the dependency can never be
                    // satisfied.
                    Diagnostic &d = diags.report(
                        DiagId::KernelDepCycle, subj,
                        dep == k
                            ? std::string("depends on itself")
                            : "depends on kernel '" +
                                  job.kernels[dep].name +
                                  "' (index " + std::to_string(dep) +
                                  ") which launches later — the "
                                  "kernel list is the schedule, so "
                                  "this edge is a cycle");
                    locate(d, ctx.jobKv,
                           "kernel." + std::to_string(k) +
                               ".depends");
                }
            }
        }

        for (std::size_t b = 0; b < nBufs; ++b) {
            if (!used[b]) {
                diags.report(DiagId::UnusedBuffer,
                             bufferSubject(ctx, job, b),
                             "declared (" +
                                 bytesStr(job.buffers[b].bytes) +
                                 ") but no kernel reads or writes "
                                 "it");
            } else if (job.buffers[b].bytes == 0) {
                diags.report(DiagId::UnusedBuffer, Severity::Warn,
                             bufferSubject(ctx, job, b),
                             "is declared with 0 bytes");
            }
        }
    }

  private:
    static std::string
    subject(const LintContext &ctx, const std::string &kernel,
            std::size_t idx)
    {
        std::string base =
            ctx.subject.empty() ? "job" : ctx.subject;
        return base + ", kernel '" + kernel + "' (index " +
               std::to_string(idx) + ")";
    }

    static std::string
    bufferSubject(const LintContext &ctx, const Job &job,
                  std::size_t b)
    {
        std::string base =
            ctx.subject.empty() ? "job" : ctx.subject;
        return base + ", buffer '" + job.buffers[b].name + "'";
    }
};

// --- resources: UAL006-008 shared memory, geometry, capacity ---------

class ResourceLimitsPass : public AnalysisPass
{
  public:
    const char *name() const override { return "resources"; }
    const char *
    description() const override
    {
        return "shared-memory footprint, launch geometry and memory "
               "capacities (UAL006-UAL008)";
    }

    void
    run(const LintContext &ctx, DiagnosticEngine &diags) const override
    {
        if (!ctx.job || !ctx.system)
            return;
        const Job &job = *ctx.job;
        const GpuConfig &gpu = ctx.system->gpu;

        for (std::size_t k = 0; k < job.kernels.size(); ++k) {
            const KernelDescriptor &kd = job.kernels[k];
            std::string subj = kernelSubject(ctx, kd.name, k);

            bool geomOk = true;
            if (kd.gridBlocks == 0 || kd.threadsPerBlock == 0) {
                diags.report(DiagId::BadLaunchGeometry, subj,
                             "launch geometry " +
                                 std::to_string(kd.gridBlocks) +
                                 " blocks x " +
                                 std::to_string(kd.threadsPerBlock) +
                                 " threads is empty");
                geomOk = false;
            } else if (kd.threadsPerBlock > gpu.maxThreadsPerSm) {
                diags.report(
                    DiagId::BadLaunchGeometry, subj,
                    "block of " +
                        std::to_string(kd.threadsPerBlock) +
                        " threads exceeds the SM thread capacity " +
                        std::to_string(gpu.maxThreadsPerSm));
                geomOk = false;
            } else if (gpu.warpSize != 0 &&
                       kd.threadsPerBlock % gpu.warpSize != 0) {
                diags.report(
                    DiagId::BadLaunchGeometry, Severity::Warn, subj,
                    std::to_string(kd.threadsPerBlock) +
                        " threads per block is not a multiple of "
                        "the " +
                        std::to_string(gpu.warpSize) +
                        "-thread warp size; the trailing warp runs "
                        "partially empty");
            }

            if (kd.sharedBytesPerBlock > gpu.maxSharedBytes) {
                diags.report(
                    DiagId::SharedOverflow, subj,
                    "tile stage of " +
                        bytesStr(kd.sharedBytesPerBlock) +
                        " per block exceeds the largest legal "
                        "carveout " +
                        bytesStr(gpu.maxSharedBytes));
            } else if (geomOk) {
                Bytes carveout = gpu.defaultSharedCarveout;
                OccupancyResult occ = computeOccupancy(
                    gpu, kd.threadsPerBlock, kd.sharedBytesPerBlock,
                    carveout);
                if (occ.tileScale < 1.0) {
                    diags.report(
                        DiagId::SharedOverflow, Severity::Note, subj,
                        "tile stage of " +
                            bytesStr(kd.sharedBytesPerBlock) +
                            " does not fit the " + bytesStr(carveout) +
                            " default carveout; tiles shrink by " +
                            fmtDouble(occ.tileScale, 3));
                }
                Bytes asyncShared = static_cast<Bytes>(
                    static_cast<double>(kd.sharedBytesPerBlock) *
                    gpu.asyncSharedMemFactor);
                if (kd.sharedBytesPerBlock <= carveout &&
                    asyncShared > carveout) {
                    diags.report(
                        DiagId::SharedOverflow, Severity::Note, subj,
                        "double-buffered async stage (" +
                            bytesStr(asyncShared) +
                            ") exceeds the " + bytesStr(carveout) +
                            " carveout; async modes shrink tiles "
                            "or lose occupancy");
                }
            }
        }

        Bytes footprint = job.footprint();
        Bytes hostCap = ctx.system->host.dimmCount *
                        ctx.system->host.dimmCapacity;
        std::string subj =
            ctx.subject.empty() ? "job" : ctx.subject;
        if (footprint > hostCap) {
            diags.report(DiagId::FootprintOverCapacity, subj,
                         "footprint " + bytesStr(footprint) +
                             " exceeds host DRAM capacity " +
                             bytesStr(hostCap));
        } else if (footprint > ctx.system->deviceMemoryBytes) {
            diags.report(
                DiagId::FootprintOverCapacity, Severity::Warn, subj,
                "footprint " + bytesStr(footprint) +
                    " oversubscribes device memory (" +
                    bytesStr(ctx.system->deviceMemoryBytes) +
                    "): explicit modes cannot allocate; managed "
                    "modes will thrash under eviction");
        }
    }

  private:
    static std::string
    kernelSubject(const LintContext &ctx, const std::string &kernel,
                  std::size_t idx)
    {
        std::string base =
            ctx.subject.empty() ? "job" : ctx.subject;
        return base + ", kernel '" + kernel + "' (index " +
               std::to_string(idx) + ")";
    }
};

// --- patterns: UAL010-012 mixes, fractions, prefetch contradictions --

class PatternConsistencyPass : public AnalysisPass
{
  public:
    const char *name() const override { return "patterns"; }
    const char *
    description() const override
    {
        return "instruction mixes, touched fractions and "
               "prefetcher/pattern consistency (UAL010-UAL012)";
    }

    void
    run(const LintContext &ctx, DiagnosticEngine &diags) const override
    {
        if (!ctx.job)
            return;
        const Job &job = *ctx.job;

        double irregularReadBytes = 0.0;
        double totalReadBytes = 0.0;
        std::string irregularBufs;

        for (std::size_t k = 0; k < job.kernels.size(); ++k) {
            const KernelDescriptor &kd = job.kernels[k];
            std::string subj = kernelSubject(ctx, kd.name, k);

            InstrMix perTile{kd.memPerTile, kd.fpPerTile,
                             kd.intPerTile, kd.ctrlPerTile};
            std::string mixErr = perTile.validate();
            if (!mixErr.empty()) {
                diags.report(DiagId::BadInstructionMix, subj,
                             "per-tile " + mixErr);
            } else if (perTile.total() == 0.0) {
                diags.report(DiagId::BadInstructionMix, subj,
                             "per-tile instruction mix is all zero; "
                             "the kernel would execute nothing");
            }
            if (!(kd.warpsToSaturate > 0.0)) {
                diags.report(DiagId::BadInstructionMix, subj,
                             "warps_to_saturate " +
                                 fmtDouble(kd.warpsToSaturate, 3) +
                                 " must be > 0");
            }
            if (!(kd.asyncComputePenalty > 0.0)) {
                diags.report(DiagId::BadInstructionMix, subj,
                             "async_penalty " +
                                 fmtDouble(kd.asyncComputePenalty,
                                           3) +
                                 " must be > 0");
            } else if (kd.asyncComputePenalty < 1.0) {
                diags.report(
                    DiagId::BadInstructionMix, Severity::Note, subj,
                    "async_penalty " +
                        fmtDouble(kd.asyncComputePenalty, 3) +
                        " < 1 makes the hand-written async variant "
                        "faster than the standard kernel — unusual "
                        "but allowed");
            }

            for (const KernelBufferUse &use : kd.buffers) {
                if (!(use.touchedFraction >= 0.0) ||
                    use.touchedFraction > 1.0) {
                    Diagnostic &d = diags.report(
                        DiagId::BadTouchedFraction, subj,
                        "touched fraction " +
                            fmtDouble(use.touchedFraction, 3) +
                            " of buffer id " +
                            std::to_string(use.bufferId) +
                            " is outside [0, 1]");
                    locate(d, ctx.jobKv,
                           "kernel." + std::to_string(k) +
                               ".buffers");
                }
                if (use.read && use.bufferId < job.buffers.size()) {
                    double bytes =
                        static_cast<double>(
                            job.buffers[use.bufferId].bytes) *
                        std::clamp(use.touchedFraction, 0.0, 1.0);
                    totalReadBytes += bytes;
                    if (patternRegularity(use.pattern) < 0.3) {
                        irregularReadBytes += bytes;
                        std::string name =
                            job.buffers[use.bufferId].name;
                        if (irregularBufs.find("'" + name + "'") ==
                            std::string::npos) {
                            if (!irregularBufs.empty())
                                irregularBufs += ", ";
                            irregularBufs += "'" + name + "'";
                        }
                    }
                }
            }
        }

        std::string subj = ctx.subject.empty() ? "job" : ctx.subject;
        if (ctx.system &&
            ctx.system->uvm.demandPrefetcher != PrefetcherKind::None &&
            totalReadBytes > 0.0 &&
            irregularReadBytes > 0.5 * totalReadBytes) {
            diags.report(
                DiagId::PrefetchMismatch, subj,
                "a " +
                    std::string(ctx.system->uvm.demandPrefetcher ==
                                        PrefetcherKind::Stream
                                    ? "stream"
                                    : "tree") +
                    " demand prefetcher is configured but most read "
                    "traffic walks low-regularity buffers (" +
                    irregularBufs +
                    "); its speculative migrations will mostly be "
                    "wasted");
        }
        if (job.prefetchEachLaunch && job.sequenceRepeats > 1) {
            diags.report(
                DiagId::PrefetchMismatch, Severity::Note, subj,
                "prefetch_each_launch with " +
                    std::to_string(job.sequenceRepeats) +
                    " repeats re-issues cudaMemPrefetchAsync over "
                    "already-resident data; dirty pages churn "
                    "across the link (the paper's nw effect)");
        }
    }

  private:
    static std::string
    kernelSubject(const LintContext &ctx, const std::string &kernel,
                  std::size_t idx)
    {
        std::string base =
            ctx.subject.empty() ? "job" : ctx.subject;
        return base + ", kernel '" + kernel + "' (index " +
               std::to_string(idx) + ")";
    }
};

// --- event-volume: UAL018 runaway-run pre-estimate -------------------

class EventVolumePass : public AnalysisPass
{
  public:
    const char *name() const override { return "event-volume"; }
    const char *
    description() const override
    {
        return "estimated simulation event volume vs the watchdog "
               "ceiling (UAL018)";
    }

    void
    run(const LintContext &ctx, DiagnosticEngine &diags) const override
    {
        if (!ctx.job || !ctx.system)
            return;
        const Job &job = *ctx.job;
        Bytes chunkBytes = ctx.system->uvm.chunkBytes;
        if (chunkBytes == 0 || job.footprint() == 0)
            return;

        // Worst-case UVM fault volume: every chunk of the footprint
        // faults once per sequence repeat (thrash re-faults resident
        // data on each pass). This is the dominant event producer —
        // explicit copies are O(buffers), not O(chunks).
        std::uint64_t chunks =
            (job.footprint() + chunkBytes - 1) / chunkBytes;
        std::uint64_t repeats =
            job.sequenceRepeats ? job.sequenceRepeats : 1;
        std::uint64_t estimate = chunks * repeats;

        std::uint64_t ceiling = ctx.system->watchdog.maxEvents
                                    ? ctx.system->watchdog.maxEvents
                                    : defaultWatchdogMaxEvents;
        if (estimate <= ceiling)
            return;
        std::string subj = ctx.subject.empty() ? "job" : ctx.subject;
        diags.report(
            DiagId::EventVolumeOverCeiling, subj,
            "estimated event volume " + std::to_string(estimate) +
                " (" + std::to_string(chunks) + " chunks x " +
                std::to_string(repeats) +
                " repeats) exceeds the watchdog ceiling " +
                std::to_string(ceiling) +
                "; the watchdog would kill the run as a runaway — "
                "raise watchdog.max_events if this volume is "
                "intentional");
    }
};

// --- kv-keys: UAL013/UAL014 over the model's KV sources --------------

class KvKeysPass : public AnalysisPass
{
  public:
    const char *name() const override { return "kv-keys"; }
    const char *
    description() const override
    {
        return "unknown and shadowed keys in config/job KV sources "
               "(UAL013, UAL014)";
    }

    void
    run(const LintContext &ctx, DiagnosticEngine &diags) const override
    {
        if (ctx.systemKv) {
            checkKvKeys(*ctx.systemKv, knownSystemConfigKeys(),
                        "system config", diags);
        }
        if (ctx.jobKv) {
            checkKvKeys(*ctx.jobKv, knownJobFileKeys(*ctx.jobKv),
                        "job description", diags);
        }
    }
};

// --- cost-advisor: UAL019..UAL024 from the static cost model ---------

/** The kernel timing model asserts on geometry the structural passes
 * flag as errors; the advisor only runs on models it can price. */
bool
costModelApplicable(const Job &job, const SystemConfig &sys)
{
    if (job.buffers.empty() || job.kernels.empty())
        return false;
    for (const KernelDescriptor &kd : job.kernels) {
        if (kd.gridBlocks == 0 || kd.threadsPerBlock == 0 ||
            kd.threadsPerBlock > sys.gpu.maxThreadsPerSm ||
            kd.warpsToSaturate <= 0.0 || kd.asyncComputePenalty <= 0.0)
            return false;
        for (const KernelBufferUse &use : kd.buffers) {
            if (use.bufferId >= job.buffers.size())
                return false;
        }
    }
    return true;
}

class CostAdvisorPass : public AnalysisPass
{
  public:
    const char *name() const override { return "cost-advisor"; }
    const char *
    description() const override
    {
        return "static cost-model advisories: thrash, dominated "
               "mode, dead writes, chunk waste, prefetch mismatch, "
               "event volume (UAL019-UAL024)";
    }

    void
    run(const LintContext &ctx, DiagnosticEngine &diags) const override
    {
        // The advisor runs last in the pipeline: a model the
        // structural passes already rejected (or one the guard below
        // cannot price) gets no advisories — the timing model would
        // assert on it.
        if (!ctx.job || !ctx.system || diags.hasErrors() ||
            !costModelApplicable(*ctx.job, *ctx.system))
            return;
        const SystemConfig &sys = *ctx.system;
        const Job &job = *ctx.job;
        CostReport rep = analyzeCost(sys, job);
        const DataflowSummary &flow = rep.flow;
        std::string subj = ctx.subject.empty() ? "job" : ctx.subject;

        // UAL019: the demanded working set cannot stay resident.
        if (flow.touchedOversubscription > 1.0) {
            const ModeCost &uvm = rep.mode(TransferMode::Uvm);
            diags.report(
                DiagId::PredictedThrash, subj,
                "demanded working set " +
                    bytesStr(flow.touchedFootprintBytes) + " is " +
                    fmtDouble(flow.touchedOversubscription, 2) +
                    "x device memory (" +
                    bytesStr(flow.deviceCapacity) +
                    "); the cost model predicts " +
                    std::to_string(uvm.faults) +
                    " demand faults of cyclic re-migration under "
                    "uvm");
        }

        // UAL020: a mode about to run is predicted dominated.
        for (TransferMode m : ctx.modes) {
            constexpr double dominatedRatio = 1.25;
            const ModeCost &sel = rep.mode(m);
            const ModeCost &best = rep.mode(rep.bestMode);
            if (best.overallPs() > 0.0 &&
                sel.overallPs() >
                    best.overallPs() * dominatedRatio) {
                diags.report(
                    DiagId::DominatedModeSelection, subj,
                    std::string("mode ") + transferModeName(m) +
                        " is predicted " +
                        fmtTime(sel.overallPs()) + " overall, but " +
                        transferModeName(rep.bestMode) +
                        " is predicted " +
                        fmtTime(best.overallPs()) + " (" +
                        fmtDouble(sel.overallPs() /
                                      best.overallPs(), 2) +
                        "x faster)");
            }
        }

        for (const BufferFlow &bf : flow.buffers) {
            // UAL021: written data nothing ever observes.
            if (bf.deadAfterLastWrite) {
                diags.report(
                    DiagId::DeadBufferWrite, subj + "/" + bf.name,
                    "buffer is written by kernel " +
                        std::to_string(bf.lastWriteKernel) +
                        " but is neither host-consumed nor read "
                        "afterwards; the writes (and any writeback "
                        "of " + bytesStr(bf.bytes) +
                        ") are dead traffic");
            }

            // UAL022: chunk rounding migrates far more than touched.
            constexpr double wasteRatio = 2.0;
            const Bytes wasteFloor = mib(16);
            if (bf.demandedBytes >
                    static_cast<Bytes>(
                        static_cast<double>(bf.touchedBytes) *
                        wasteRatio) &&
                bf.demandedBytes - bf.touchedBytes >= wasteFloor) {
                diags.report(
                    DiagId::ChunkGeometryWaste,
                    subj + "/" + bf.name,
                    "accesses touch " + bytesStr(bf.touchedBytes) +
                        " but demand-migrate " +
                        bytesStr(bf.demandedBytes) + " (" +
                        bytesStr(static_cast<double>(
                            flow.chunkBytes)) +
                        " chunks round sparse touches up " +
                        fmtDouble(static_cast<double>(
                                      bf.demandedBytes) /
                                      std::max<double>(
                                          1.0,
                                          static_cast<double>(
                                              bf.touchedBytes)),
                                  1) +
                        "x)");
            }
        }

        // UAL023: prefetch policy vs computed reuse distance.
        if (job.prefetchEachLaunch &&
            flow.footprint <= flow.deviceCapacity &&
            flow.repeats * flow.launchesPerPass > 1) {
            Bytes churn =
                rep.mode(TransferMode::UvmPrefetch).migrationBytes;
            diags.report(
                DiagId::PrefetchReuseMismatch, subj,
                "prefetch_each_launch re-prefetches data whose "
                "reuse distance fits device memory; under "
                "uvm_prefetch the cost model predicts " +
                    bytesStr(churn) +
                    " of migration traffic where one upfront "
                    "prefetch would settle for " +
                    bytesStr(flow.hostInitBytes));
        }
        if (sys.uvm.demandPrefetcher != PrefetcherKind::None) {
            for (const BufferFlow &bf : flow.buffers) {
                if (bf.reuseDistanceBytes <= flow.deviceCapacity ||
                    bf.usesPerPass == 0)
                    continue;
                diags.report(
                    DiagId::PrefetchReuseMismatch,
                    subj + "/" + bf.name,
                    "the demand prefetcher speculatively migrates "
                    "this buffer, but its reuse distance " +
                        bytesStr(bf.reuseDistanceBytes) +
                        " exceeds device memory — prefetched "
                        "chunks are evicted before reuse");
            }
        }

        // UAL024: predicted (not worst-case) event volume vs the
        // watchdog ceiling; UAL018 covers the over-ceiling case.
        std::uint64_t ceiling = sys.watchdog.maxEvents
                                    ? sys.watchdog.maxEvents
                                    : defaultWatchdogMaxEvents;
        std::uint64_t maxEvents = 0;
        TransferMode maxMode = TransferMode::Standard;
        for (TransferMode m : allTransferModes) {
            if (rep.mode(m).predictedEvents > maxEvents) {
                maxEvents = rep.mode(m).predictedEvents;
                maxMode = m;
            }
        }
        if (maxEvents * 2 > ceiling && maxEvents <= ceiling) {
            diags.report(
                DiagId::PredictedEventVolume, subj,
                std::string("the cost model predicts ") +
                    std::to_string(maxEvents) +
                    " watchdog-visible events under " +
                    transferModeName(maxMode) +
                    ", within 2x of the ceiling " +
                    std::to_string(ceiling) +
                    "; headroom this thin risks a mid-sweep "
                    "PointTimeout");
        }
        if (ctx.costReport)
            *ctx.costReport = std::move(rep);
    }
};

} // namespace

void
PassManager::add(std::unique_ptr<AnalysisPass> pass)
{
    passes_.push_back(std::move(pass));
}

void
PassManager::run(const LintContext &ctx, DiagnosticEngine &diags,
                 const std::vector<std::string> &only) const
{
    for (const auto &pass : passes_) {
        if (!only.empty() &&
            std::find(only.begin(), only.end(), pass->name()) ==
                only.end())
            continue;
        pass->run(ctx, diags);
    }
}

std::vector<std::string>
PassManager::names() const
{
    std::vector<std::string> out;
    out.reserve(passes_.size());
    for (const auto &pass : passes_)
        out.push_back(pass->name());
    return out;
}

PassManager
PassManager::standardPipeline()
{
    PassManager pm;
    pm.add(std::make_unique<SystemConfigPass>());
    pm.add(std::make_unique<KvKeysPass>());
    pm.add(std::make_unique<KernelGraphPass>());
    pm.add(std::make_unique<ResourceLimitsPass>());
    pm.add(std::make_unique<PatternConsistencyPass>());
    pm.add(std::make_unique<EventVolumePass>());
    pm.add(std::make_unique<CostAdvisorPass>());
    return pm;
}

void
checkKvKeys(const KvConfig &kv,
            const std::set<std::string> &knownKeys,
            const std::string &scope, DiagnosticEngine &diags)
{
    std::vector<std::string> candidates(knownKeys.begin(),
                                        knownKeys.end());
    for (const std::string &key : kv.keys()) {
        if (knownKeys.count(key))
            continue;
        std::string suggestion = closestKey(key, candidates);
        Diagnostic &d = diags.report(
            DiagId::UnknownConfigKey, scope,
            "unknown key '" + key + "'" +
                (suggestion.empty()
                     ? ""
                     : " — did you mean '" + suggestion + "'?"));
        if (!suggestion.empty())
            d.hint = "replace '" + key + "' with '" + suggestion +
                     "' (or remove it)";
        d.loc.file = kv.sourceName();
        d.loc.line = kv.lineOf(key);
    }
    for (const KvShadowedKey &dup : kv.shadowedKeys()) {
        Diagnostic &d = diags.report(
            DiagId::ShadowedConfigKey, scope,
            "key '" + dup.key + "' assigned on line " +
                std::to_string(dup.firstLine) +
                " is shadowed by the assignment on line " +
                std::to_string(dup.line));
        d.loc.file = kv.sourceName();
        d.loc.line = dup.line;
    }
}

std::set<std::string>
knownJobFileKeys(const KvConfig &kv)
{
    std::set<std::string> known = {
        "job.name",
        "job.repeats",
        "job.prefetch_each_launch",
    };
    static const char *bufferKeys[] = {"name", "bytes", "kib", "mib",
                                       "gib", "host_init",
                                       "host_consumed"};
    static const char *kernelKeys[] = {
        "name",          "blocks",           "threads",
        "total_load_mib", "shared_kib",      "flops_per_element",
        "ints_per_element", "ctrl_per_element", "store_ratio",
        "warps_to_saturate", "async_penalty", "buffers",
        "depends"};

    // Sections are numbered contiguously from 0; accept keys for
    // exactly the sections that exist so buffer.7.name on a 2-buffer
    // job is flagged instead of silently ignored.
    for (std::size_t i = 0;; ++i) {
        std::string prefix = "buffer." + std::to_string(i);
        if (!kv.has(prefix + ".name"))
            break;
        for (const char *key : bufferKeys)
            known.insert(prefix + "." + key);
    }
    for (std::size_t i = 0;; ++i) {
        std::string prefix = "kernel." + std::to_string(i);
        if (!kv.has(prefix + ".name"))
            break;
        for (const char *key : kernelKeys)
            known.insert(prefix + "." + key);
    }
    return known;
}

} // namespace uvmasync
