#include "runtime/allocator.hh"

#include <cmath>
#include <utility>

namespace uvmasync
{

Allocator::Allocator(std::string name, AllocatorConfig cfg)
    : SimObject(std::move(name)), cfg_(cfg)
{
}

void
Allocator::beginJob()
{
    jobAllocTime_ = 0;
}

void
Allocator::resetContext()
{
    contextInitialised_ = false;
    jobAllocTime_ = 0;
}

Tick
Allocator::charge(Tick base, Tick perGiB, Bytes bytes)
{
    Tick cost = base;
    if (!contextInitialised_) {
        cost += cfg_.contextInit;
        contextInitialised_ = true;
    }
    double gib_count = static_cast<double>(bytes) /
                       static_cast<double>(gib(1));
    cost += static_cast<Tick>(
        std::ceil(static_cast<double>(perGiB) * gib_count));
    jobAllocTime_ += cost;
    ++calls_;
    return cost;
}

Tick
Allocator::deviceAlloc(Bytes bytes)
{
    return charge(cfg_.deviceAllocBase, cfg_.deviceAllocPerGiB, bytes);
}

Tick
Allocator::managedAlloc(Bytes bytes)
{
    return charge(cfg_.managedAllocBase, cfg_.managedAllocPerGiB, bytes);
}

Tick
Allocator::deviceFree(Bytes bytes)
{
    return charge(cfg_.deviceFreeBase, cfg_.deviceFreePerGiB, bytes);
}

Tick
Allocator::managedFree(Bytes bytes)
{
    return charge(cfg_.managedFreeBase, cfg_.managedFreePerGiB, bytes);
}

void
Allocator::exportStats(StatMap &out) const
{
    putStat(out, "job_alloc_time_ps",
            static_cast<double>(jobAllocTime_));
    putStat(out, "calls", static_cast<double>(calls_));
}

} // namespace uvmasync
