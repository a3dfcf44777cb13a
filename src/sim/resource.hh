/**
 * @file
 * Time-shared hardware resources.
 *
 * BandwidthResource models a serially shared link or memory port: each
 * request occupies the resource for bytes/bandwidth time, queued FCFS.
 */

#ifndef UVMASYNC_SIM_RESOURCE_HH
#define UVMASYNC_SIM_RESOURCE_HH

#include <string>

#include "common/types.hh"
#include "common/units.hh"

namespace uvmasync
{

/** The time window a request occupies on a resource. */
struct Occupancy
{
    Tick start;
    Tick end;

    Tick duration() const { return end - start; }
};

/**
 * A single FCFS bandwidth pipe (PCIe direction, HBM port, ...).
 *
 * This is an analytic busy-until resource: acquire() computes when the
 * request can start (max of "now" and the previous request's end) and
 * advances the busy pointer.
 */
class BandwidthResource
{
  public:
    /**
     * @param name      stat/reporting name
     * @param bandwidth sustained transfer rate
     * @param perRequestLatency fixed setup latency added to each
     *        request (DMA descriptor processing, protocol overhead)
     */
    BandwidthResource(std::string name, Bandwidth bandwidth,
                      Tick perRequestLatency = 0);

    /**
     * Reserve the resource for a @p bytes transfer requested at
     * @p now. Returns the occupied window.
     */
    Occupancy acquire(Tick now, Bytes bytes);

    /** Total busy time accumulated so far. */
    Tick busyTime() const { return busyTime_; }

    /** Number of acquire() calls. */
    std::uint64_t requests() const { return requests_; }

    /** Forget all state (time goes back to zero). */
    void reset();

  private:
    std::string name_;
    Bandwidth bandwidth_;
    Tick perRequestLatency_;
    Tick busyUntil_ = 0;
    Tick busyTime_ = 0;
    std::uint64_t requests_ = 0;
};

} // namespace uvmasync

#endif // UVMASYNC_SIM_RESOURCE_HH
