/**
 * @file
 * Host allocation-call cost model.
 *
 * The paper's overall-time definition includes cudaMalloc()/
 * cudaMallocManaged() plus cudaFree() ("data allocation time"); after
 * UVM and async memcpy shrink the other components this becomes the
 * dominant term (Section 6.1: 18.99% -> 37.66%). The model charges a
 * per-call base, a per-GiB slope, and a one-time context
 * initialisation on the first call of a process.
 */

#ifndef UVMASYNC_RUNTIME_ALLOCATOR_HH
#define UVMASYNC_RUNTIME_ALLOCATOR_HH

#include <string>

#include "common/types.hh"
#include "runtime/system_config.hh"
#include "sim/sim_object.hh"

namespace uvmasync
{

/**
 * Accumulates allocation/free costs for one job.
 */
class Allocator : public SimObject
{
  public:
    Allocator(std::string name, AllocatorConfig cfg);

    /** Start a new job (context stays initialised). */
    void beginJob();

    /** Forget context initialisation too (fresh process). */
    void resetContext();

    /** Cost of cudaMalloc(bytes). */
    Tick deviceAlloc(Bytes bytes);

    /** Cost of cudaMallocManaged(bytes). */
    Tick managedAlloc(Bytes bytes);

    /** Cost of cudaFree for a device allocation. */
    Tick deviceFree(Bytes bytes);

    /** Cost of cudaFree for a managed allocation. */
    Tick managedFree(Bytes bytes);

    /** Allocation+free time accumulated for the current job. */
    Tick jobAllocTime() const { return jobAllocTime_; }

    void exportStats(StatMap &out) const override;

  private:
    Tick charge(Tick base, Tick perGiB, Bytes bytes);

    AllocatorConfig cfg_;
    bool contextInitialised_ = false;
    Tick jobAllocTime_ = 0;
    std::uint64_t calls_ = 0;
};

} // namespace uvmasync

#endif // UVMASYNC_RUNTIME_ALLOCATOR_HH
