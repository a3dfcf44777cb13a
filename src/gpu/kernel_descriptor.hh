/**
 * @file
 * Workload-facing description of one CUDA kernel.
 *
 * The executor does not interpret source code; a kernel is a grid of
 * blocks, each looping over shared-memory-sized tiles with an
 * analytic per-tile instruction mix. This is exactly the structure of
 * the paper's benchmark kernels (Figure 3's load-tile/compute loop).
 */

#ifndef UVMASYNC_GPU_KERNEL_DESCRIPTOR_HH
#define UVMASYNC_GPU_KERNEL_DESCRIPTOR_HH

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/access_pattern.hh"

namespace uvmasync
{

/** How a kernel uses one of the job's buffers. */
struct KernelBufferUse
{
    /** Index into the job's buffer list. */
    std::size_t bufferId = 0;

    /** Walk shape over the buffer. */
    AccessPattern pattern = AccessPattern::Sequential;

    bool read = true;
    bool written = false;

    /** Fraction of the buffer the kernel actually touches. */
    double touchedFraction = 1.0;

    /**
     * Whether tiles of this buffer are staged through shared memory
     * (and thus ride the async-copy pipeline in async modes).
     */
    bool stagedThroughShared = true;

    /** Field-wise order: an exact key over everything simulateL1
     * reads from a buffer use (gpu/cache_model.hh). */
    auto operator<=>(const KernelBufferUse &) const = default;
};

/**
 * Analytic kernel description.
 *
 * Instruction counts are per *tile per block*, summed over all
 * threads of the block; the executor multiplies by tiles and blocks.
 */
struct KernelDescriptor
{
    std::string name = "kernel";

    /** @{ Launch geometry. */
    std::uint64_t gridBlocks = 1;
    std::uint32_t threadsPerBlock = 256;
    /** @} */

    /** @{ Tile structure. */
    std::uint64_t tilesPerBlock = 1;
    Bytes tileLoadBytes = kib(32);   //!< global->shared per tile
    Bytes tileStoreBytes = 0;        //!< shared/reg->global per tile
    Bytes sharedBytesPerBlock = kib(32); //!< single-buffered footprint
    /** @} */

    /** @{ Per-tile dynamic instruction counts (whole block). */
    double memPerTile = 0.0;
    double fpPerTile = 0.0;
    double intPerTile = 0.0;
    double ctrlPerTile = 0.0;
    /** @} */

    /**
     * Warps per SM needed to saturate the SM's pipelines; fewer
     * resident warps scale execution time up proportionally
     * (vector_seq needs ~8; deeply dependent kernels more).
     */
    double warpsToSaturate = 8.0;

    /**
     * Restructuring overhead of this kernel's hand-written async
     * variant, multiplying compute time in async modes. Stencils
     * reload halos and re-index when double-buffered through
     * cp.async (the paper measures 2DCONV's async kernel at 2.46x
     * standard); streaming kernels keep 1.0.
     */
    double asyncComputePenalty = 1.0;

    /** Buffers this kernel touches. */
    std::vector<KernelBufferUse> buffers;

    /**
     * Declared ordering constraints: indices of kernels in the job's
     * kernel list that must complete before this one. Empty means
     * "after the previous kernel" (the implicit sequential chain).
     * The executor plays kernels in list order either way; the
     * declared DAG documents the true dataflow and is validated by
     * the static linter (cycles, dangling indices, launch order
     * consistent with the edges).
     */
    std::vector<std::size_t> dependsOn;

    /** Total bytes loaded from global memory per block. */
    Bytes
    loadBytesPerBlock() const
    {
        return tileLoadBytes * tilesPerBlock;
    }

    /** Total global load traffic of the whole grid. */
    Bytes
    totalLoadBytes() const
    {
        return loadBytesPerBlock() * gridBlocks;
    }
};

/**
 * Convenience builder: derive per-tile instruction counts from
 * per-element costs for the common "stream tiles, do k ops per
 * element" kernel shape.
 *
 * @param elementBytes    bytes per element (4 for float)
 * @param flopsPerElement fused arithmetic per element
 * @param intsPerElement  integer/address ops per element
 * @param ctrlPerElement  branches per element (loop overhead added)
 * @param storeRatio      stored bytes / loaded bytes
 */
KernelDescriptor
makeStreamKernel(std::string name, std::uint64_t gridBlocks,
                 std::uint32_t threadsPerBlock, Bytes totalLoadBytes,
                 Bytes sharedBytesPerBlock, Bytes elementBytes,
                 double flopsPerElement, double intsPerElement,
                 double ctrlPerElement, double storeRatio);

} // namespace uvmasync

#endif // UVMASYNC_GPU_KERNEL_DESCRIPTOR_HH
