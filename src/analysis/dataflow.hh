/**
 * @file
 * Static interprocedural dataflow over a job's kernel DAG and buffer
 * table. Computes, without running anything, the quantities the cost
 * model and the campaign-advisor diagnostics need: per-buffer
 * liveness intervals, per-kernel (phase) working sets, the
 * oversubscription ratio against device memory, chunk-exact demanded
 * footprints (from the executor's DemandMap, gpu/demand_map.hh),
 * reuse distances between consecutive uses, and access density.
 *
 * Everything here is a pure function of (SystemConfig, Job); no
 * simulation state is created and no clock or RNG is consulted, so
 * the walk is deterministic and safe to run at any --jobs count.
 */

#ifndef UVMASYNC_ANALYSIS_DATAFLOW_HH
#define UVMASYNC_ANALYSIS_DATAFLOW_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "runtime/job.hh"
#include "runtime/system_config.hh"

namespace uvmasync
{

/** Liveness and access summary of one job buffer. */
struct BufferFlow
{
    std::size_t id = 0;
    std::string name;
    Bytes bytes = 0;
    bool hostInit = true;
    bool hostConsumed = false;

    bool read = false;
    bool written = false;

    /** @{ Liveness interval in kernel-list indices (-1 = never). */
    int firstUseKernel = -1;
    int lastUseKernel = -1;
    int lastReadKernel = -1;
    int lastWriteKernel = -1;
    /** @} */

    /** Kernel uses of this buffer per sequence pass. */
    std::uint64_t usesPerPass = 0;

    /** Migration-granularity geometry (system.uvm.chunkBytes). */
    std::uint64_t chunkCount = 0;

    /**
     * Distinct chunks a full sequence pass demand-touches, under the
     * executor's DemandMap (union across every kernel use;
     * sequential walks touch the prefix, random walks the hash image
     * of it).
     */
    std::uint64_t demandedChunks = 0;

    /** Payload bytes of the demanded chunks (last chunk partial). */
    Bytes demandedBytes = 0;

    /** Chunk requests per pass, summed over kernels (one request
     * per distinct chunk per launch — the thrash-regime volume). */
    std::uint64_t requestChunksPerPass = 0;
    Bytes requestBytesPerPass = 0;

    /** Payload actually read/written: bytes x max touched fraction. */
    Bytes touchedBytes = 0;
    double maxTouchedFraction = 0.0;

    /**
     * Reuse distance: the largest intervening working set (bytes
     * touched by other launches) between two consecutive uses of
     * this buffer, including the wrap-around gap between sequence
     * passes when the job repeats. 0 = never reused.
     */
    Bytes reuseDistanceBytes = 0;

    /**
     * Written, not host-consumed, and no later read ever observes
     * the data (UAL021: the write traffic is dead).
     */
    bool deadAfterLastWrite = false;
};

/** Per-kernel (phase) working-set summary. */
struct KernelFlow
{
    std::string name;

    /** Payload bytes one launch touches (sum over its uses). */
    Bytes workingSetBytes = 0;

    /** Chunk-rounded bytes one launch demands (UVM geometry). */
    Bytes demandChunkBytes = 0;

    /** Chunk requests one launch issues (thrash-regime volume). */
    std::uint64_t demandRequests = 0;

    /** Chunks this kernel demands first (not demanded earlier in
     * the pass); drives first-pass fault attribution. */
    std::uint64_t newDemandChunks = 0;
    Bytes newDemandBytes = 0;

    /** Subset of the above on host-initialised buffers — the only
     * chunks that actually fault when outputs populate on-device. */
    std::uint64_t newDemandChunksHostInit = 0;
    Bytes newDemandBytesHostInit = 0;

    /** @{ Per-buffer breakdown (indexed by buffer id) of the demand
     * chunk counts above; the cost model classifies each buffer as
     * capacity-resident or streaming and needs the split. */
    std::vector<std::uint64_t> chunksByBuffer;
    std::vector<std::uint64_t> newChunksByBuffer;
    std::vector<Bytes> newBytesByBuffer;
    /** @} */
};

/** Whole-job dataflow summary. */
struct DataflowSummary
{
    std::vector<BufferFlow> buffers;
    std::vector<KernelFlow> kernels;

    std::uint64_t repeats = 1;
    std::uint64_t launchesPerPass = 0;

    Bytes footprint = 0;
    Bytes hostInitBytes = 0;
    Bytes hostConsumedBytes = 0;

    /** Bytes UVM materialises device-side for free (!hostInit). */
    Bytes populateBytes = 0;

    /** Chunk-exact union of demanded bytes, host-initialised
     * buffers only (what UVM demand paging must move). */
    Bytes demandFootprintBytes = 0;

    /** Chunk-exact union of demanded bytes, all buffers (the
     * device-resident working set of one pass). */
    Bytes touchedFootprintBytes = 0;

    /** Largest single-launch working set (payload bytes). */
    Bytes peakWorkingSetBytes = 0;

    Bytes deviceCapacity = 0;
    Bytes chunkBytes = 0;

    /** footprint / deviceCapacity. */
    double oversubscription = 0.0;

    /** touchedFootprintBytes / deviceCapacity (thrash predictor). */
    double touchedOversubscription = 0.0;

    /** Mean touched payload per allocated byte per pass. */
    double accessDensity = 0.0;
};

/** Run the static dataflow walk. Pure; never mutates its inputs. */
DataflowSummary analyzeDataflow(const SystemConfig &system,
                                const Job &job);

} // namespace uvmasync

#endif // UVMASYNC_ANALYSIS_DATAFLOW_HH
