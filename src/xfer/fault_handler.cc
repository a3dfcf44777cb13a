#include "xfer/fault_handler.hh"

#include <algorithm>
#include <utility>

#include "inject/injector.hh"

namespace uvmasync
{

FaultHandler::FaultHandler(std::string name, FaultHandlerConfig cfg)
    : SimObject(std::move(name)), cfg_(cfg)
{
}

Tick
FaultHandler::service(Tick now)
{
    ++faults_;

    // An injected fault-buffer overflow shrinks the effective batch
    // capacity below the configured one, forcing early batch splits.
    std::uint32_t maxBatch = cfg_.maxBatchSize;
    if (inject_)
        maxBatch = inject_->clampBatchSize(maxBatch);

    bool joins_batch = batches_ > 0 &&
                       now <= batchHeadTime_ + cfg_.batchWindow &&
                       batchCount_ < maxBatch;
    if (!joins_batch) {
        // This batch opens only because the injected capacity filled
        // up — the configured handler would still have batched it.
        bool overflowed = inject_ && batches_ > 0 &&
                          now <= batchHeadTime_ + cfg_.batchWindow &&
                          batchCount_ >= maxBatch &&
                          maxBatch < cfg_.maxBatchSize;
        // Open a new batch headed by this fault; it cannot start
        // processing before the handler finished the previous batch.
        closeBatchTrace();
        batchHeadTime_ = std::max(now, handlerFreeAt_);
        if (inject_) {
            if (overflowed)
                batchHeadTime_ += inject_->overflowPenalty(batchHeadTime_);
            batchHeadTime_ += inject_->batchOpenDelay(batchHeadTime_);
        }
        batchCount_ = 0;
        ++batches_;
    }
    ++batchCount_;

    // The whole batch completes base + n*perFault after its head; a
    // fault in the batch resolves at the batch completion time.
    Tick done = batchHeadTime_ + cfg_.batchBaseLatency +
                static_cast<Tick>(batchCount_) * cfg_.perFaultLatency;
    handlerFreeAt_ = std::max(handlerFreeAt_, done);
    lastDone_ = done;
    return done;
}

void
FaultHandler::closeBatchTrace()
{
    if (tracer_ && batchCount_ > 0) {
        tracer_->span(TraceCategory::Fault, TraceName::FaultBatch,
                      traceLane_, batchHeadTime_, lastDone_,
                      batchCount_);
    }
}

void
FaultHandler::flushTrace()
{
    closeBatchTrace();
    batchCount_ = 0;
}

double
FaultHandler::meanBatchSize() const
{
    return batches_ ? static_cast<double>(faults_) /
                      static_cast<double>(batches_)
                    : 0.0;
}

void
FaultHandler::reset()
{
    batchHeadTime_ = 0;
    batchCount_ = 0;
    handlerFreeAt_ = 0;
    lastDone_ = 0;
    faults_ = 0;
    batches_ = 0;
}

void
FaultHandler::exportStats(StatMap &out) const
{
    putStat(out, "faults", static_cast<double>(faults_));
    putStat(out, "batches", static_cast<double>(batches_));
    putStat(out, "mean_batch_size", meanBatchSize());
}

} // namespace uvmasync
