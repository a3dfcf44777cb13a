/**
 * @file
 * Per-kernel unified-L1 behaviour under the five configurations.
 *
 * A sampled synthetic access stream with each buffer's pattern is
 * driven through a SetAssocCache sized to the L1 share of the
 * configured L1/shared partition. Async memcpy reshapes the stream:
 * staged tile loads bypass L1 (cp.async fills shared memory via L2),
 * leaving only residual, more local accesses, and stores become
 * coalesced writebacks from shared memory — reproducing the large
 * miss-rate reductions the paper measures on lud (Figure 10).
 * UVM configurations lose part of the L1 to migration metadata and
 * prefetch-injected lines, which is what makes them sensitive to
 * oversized shared-memory carveouts (Figure 13).
 *
 * L1Memo memoises simulateL1 for callers that price many kernels
 * under one fixed L1 context (the static cost model).
 */

#ifndef UVMASYNC_GPU_CACHE_MODEL_HH
#define UVMASYNC_GPU_CACHE_MODEL_HH

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "gpu/gpu_config.hh"
#include "gpu/kernel_descriptor.hh"
#include "gpu/transfer_mode.hh"

namespace uvmasync
{

/** Measured L1 behaviour of one kernel under one configuration. */
struct CacheModelResult
{
    double loadMissRate = 0.0;
    double storeMissRate = 0.0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
};

/**
 * Simulate the kernel's L1 under @p mode with a @p sharedCarveout
 * partition. Deterministic for a given @p seed.
 *
 * @param bufferBytes job buffer sizes indexed by KernelBufferUse::bufferId
 */
CacheModelResult
simulateL1(const GpuConfig &cfg, const KernelDescriptor &kd,
           const std::vector<Bytes> &bufferBytes, TransferMode mode,
           Bytes sharedCarveout, std::uint64_t seed);

/**
 * Content-keyed memo of simulateL1 over one fixed L1 context: the
 * GPU, the job's buffer sizes, the carveout and the seed. Everything
 * else simulateL1 reads is the mode and the kernel's buffer uses, so
 * get() keys on exactly (mode, kd.buffers) and simulates each
 * distinct stream once.
 * bufferId stays in the key: it sets each stream's base address, and
 * the set count need not be a power of two.
 *
 * Not thread-safe; meant to live for one caller-owned computation.
 */
class L1Memo
{
  public:
    L1Memo(const GpuConfig &gpu, std::vector<Bytes> bufferBytes,
           Bytes sharedCarveout, std::uint64_t seed);

    /** simulateL1 of @p kd under @p mode in this memo's context. */
    CacheModelResult get(const KernelDescriptor &kd, TransferMode mode);

    /** Whether this memo's context is exactly these inputs. */
    bool matches(const GpuConfig &gpu,
                 const std::vector<Bytes> &bufferBytes,
                 Bytes sharedCarveout, std::uint64_t seed) const;

    /** Distinct streams simulated so far. */
    std::size_t size() const { return results_.size(); }

  private:
    using Key = std::pair<TransferMode, std::vector<KernelBufferUse>>;

    GpuConfig gpu_;
    std::vector<Bytes> bufferBytes_;
    Bytes sharedCarveout_;
    std::uint64_t seed_;
    std::map<Key, CacheModelResult> results_;
};

} // namespace uvmasync

#endif // UVMASYNC_GPU_CACHE_MODEL_HH
