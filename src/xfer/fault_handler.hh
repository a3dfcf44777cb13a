/**
 * @file
 * GPU far-fault servicing model.
 *
 * When an SM touches a non-resident managed page it raises a far
 * fault; the UVM driver collects faults from the fault buffer and
 * services them in batches (cf. Kim et al., ASPLOS'20, cited by the
 * paper). The handler therefore amortises a large base latency over
 * the faults that arrive within a batching window; the per-fault
 * marginal cost is much smaller.
 */

#ifndef UVMASYNC_XFER_FAULT_HANDLER_HH
#define UVMASYNC_XFER_FAULT_HANDLER_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "sim/sim_object.hh"
#include "trace/trace.hh"

namespace uvmasync
{

class Injector;

/** Tunables of the fault servicing path. */
struct FaultHandlerConfig
{
    /** Driver work to drain and preprocess one fault batch. */
    Tick batchBaseLatency = microseconds(45);

    /** Marginal cost per fault inside a batch. */
    Tick perFaultLatency = nanoseconds(2500);

    /** Faults arriving within this window of the batch head join it. */
    Tick batchWindow = microseconds(20);

    /** Maximum faults serviced per batch. */
    std::uint32_t maxBatchSize = 256;
};

/**
 * Batched far-fault servicing. Callers report a fault's arrival time
 * and receive the tick at which the driver has resolved the fault and
 * the migration may be queued on the link.
 */
class FaultHandler : public SimObject
{
  public:
    FaultHandler(std::string name, FaultHandlerConfig cfg);

    /**
     * Service one fault arriving at @p now.
     * @return tick at which driver processing of this fault is done.
     */
    Tick service(Tick now);

    /** Mean faults per batch so far (0 when no batch yet). */
    double meanBatchSize() const;

    /** Forget the timeline (new run). */
    void reset();

    /**
     * Record one span per serviced batch ([head, completion], batch
     * size in arg) on @p lane of @p tracer. A batch's span is emitted
     * when the next batch opens; call flushTrace() at end of run to
     * emit the final one. Pass nullptr to detach.
     */
    void
    setTrace(Tracer *tracer, std::uint32_t lane = 0)
    {
        tracer_ = tracer;
        traceLane_ = lane;
    }

    /** Emit the still-open batch's span, if any. */
    void flushTrace();

    /**
     * Attach the fault injector (null detaches): shrinks the
     * effective fault-buffer capacity (batch overflow) and delays the
     * servicing of newly opened batches.
     */
    void setInjector(Injector *inject) { inject_ = inject; }

    void exportStats(StatMap &out) const override;

  private:
    void closeBatchTrace();

    FaultHandlerConfig cfg_;

    Tick batchHeadTime_ = 0;
    std::uint32_t batchCount_ = 0;
    Tick handlerFreeAt_ = 0;
    Tick lastDone_ = 0;

    std::uint64_t faults_ = 0;
    std::uint64_t batches_ = 0;

    Tracer *tracer_ = nullptr;
    std::uint32_t traceLane_ = 0;
    Injector *inject_ = nullptr;
};

} // namespace uvmasync

#endif // UVMASYNC_XFER_FAULT_HANDLER_HH
