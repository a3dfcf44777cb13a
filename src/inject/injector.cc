#include "inject/injector.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/stable_hash.hh"

namespace uvmasync
{

std::uint64_t
injectSalt(std::uint64_t injectSeed, std::uint64_t pointSeed)
{
    return StableHasher().u64(injectSeed).u64(pointSeed).hash();
}

Rng
Injector::streamRng(std::uint64_t salt, Stream stream)
{
    return Rng(
        StableHasher(salt).u64(static_cast<std::uint64_t>(stream)).hash());
}

Injector::Injector(const InjectPlan &plan, std::uint64_t salt)
    : plan_(plan), enabled_(plan.enabled()),
      pcieRng_(streamRng(salt, StreamPcie)),
      faultRng_(streamRng(salt, StreamFault)),
      migrateRng_(streamRng(salt, StreamMigrate)),
      hostRng_(streamRng(salt, StreamHost)),
      kernelRng_(streamRng(salt, StreamKernel))
{
}

void
Injector::setTrace(Tracer *tracer, std::uint32_t instantLane,
                   std::uint32_t h2dLane, std::uint32_t d2hLane)
{
    tracer_ = tracer;
    instantLane_ = instantLane;
    h2dLane_ = h2dLane;
    d2hLane_ = d2hLane;
}

Tick
Injector::applyTransferFaults(Tick now, Bytes bytes,
                              const char *kindName)
{
    if (plan_.pcie.failRate <= 0.0)
        return now;
    std::uint32_t attempt = 0;
    while (pcieRng_.chance(plan_.pcie.failRate)) {
        ++counters_.transientFailures;
        if (attempt >= plan_.pcie.maxRetries) {
            ++counters_.aborts;
            if (tracer_) {
                tracer_->instant(TraceCategory::Inject,
                                 TraceName::InjectAbort, instantLane_,
                                 now, attempt, kindName);
            }
            throw TransferAborted(
                strfmt("injected %s transfer of %llu bytes failed "
                       "after %u retries at t=%.3f us",
                       kindName,
                       static_cast<unsigned long long>(bytes),
                       attempt, toMicroseconds(now)),
                now, attempt);
        }
        Tick backoff = plan_.pcie.backoffBasePs << attempt;
        ++counters_.retries;
        counters_.backoffPs += backoff;
        if (tracer_) {
            tracer_->instant(TraceCategory::Inject,
                             TraceName::InjectRetry, instantLane_,
                             now, backoff, kindName);
        }
        now += backoff;
        ++attempt;
    }
    return now;
}

double
Injector::degradeFactor(Tick now) const
{
    const InjectPcie &p = plan_.pcie;
    if (p.degradeFactor <= 1.0 || !p.window.covers(now))
        return 1.0;
    if (p.stutterPeriodPs > 0) {
        // Stutter phase is anchored at the window start so the first
        // `duty` share of every period is the degraded half.
        Tick phase = (now - p.window.startPs) % p.stutterPeriodPs;
        Tick dutyPs = static_cast<Tick>(
            p.stutterDuty *
            static_cast<double>(p.stutterPeriodPs));
        if (phase >= dutyPs)
            return 1.0;
    }
    return p.degradeFactor;
}

void
Injector::noteDegradedTransfer(Tick start, Tick end, double factor,
                               bool h2d)
{
    ++counters_.degradedTransfers;
    counters_.degradedBusyPs += end - start;
    if (tracer_) {
        tracer_->span(TraceCategory::Inject, TraceName::InjectDegraded,
                      h2d ? h2dLane_ : d2hLane_, start, end,
                      static_cast<std::uint64_t>(factor * 100.0), 0,
                      h2d ? "h2d" : "d2h");
    }
}

std::uint32_t
Injector::clampBatchSize(std::uint32_t configured) const
{
    if (plan_.fault.batchOverflow == 0)
        return configured;
    return std::min(configured, plan_.fault.batchOverflow);
}

Tick
Injector::overflowPenalty(Tick when)
{
    ++counters_.overflowBatches;
    counters_.faultDelayPs += plan_.fault.overflowPenaltyPs;
    if (tracer_) {
        tracer_->instant(TraceCategory::Inject,
                         TraceName::InjectBatchOverflow, instantLane_,
                         when, plan_.fault.overflowPenaltyPs);
    }
    return plan_.fault.overflowPenaltyPs;
}

Tick
Injector::batchOpenDelay(Tick when)
{
    if (plan_.fault.delayRate <= 0.0 || plan_.fault.delayPs == 0)
        return 0;
    if (!faultRng_.chance(plan_.fault.delayRate))
        return 0;
    ++counters_.delayedBatches;
    counters_.faultDelayPs += plan_.fault.delayPs;
    if (tracer_) {
        tracer_->instant(TraceCategory::Inject,
                         TraceName::InjectBatchDelay, instantLane_,
                         when, plan_.fault.delayPs);
    }
    return plan_.fault.delayPs;
}

Tick
Injector::migrationBackpressure(Tick when)
{
    const InjectMigrate &m = plan_.migrate;
    if (m.backpressureRate <= 0.0 || m.backpressurePs == 0)
        return 0;
    if (!migrateRng_.chance(m.backpressureRate))
        return 0;
    ++counters_.backpressureEvents;
    counters_.backpressurePs += m.backpressurePs;
    if (tracer_) {
        tracer_->instant(TraceCategory::Inject,
                         TraceName::InjectBackpressure, instantLane_,
                         when, m.backpressurePs);
    }
    return m.backpressurePs;
}

bool
Injector::stormsEnabled() const
{
    return plan_.migrate.stormRate > 0.0 &&
           plan_.migrate.stormChunks > 0;
}

std::uint32_t
Injector::drawEvictionStorm()
{
    if (!stormsEnabled())
        return 0;
    if (!migrateRng_.chance(plan_.migrate.stormRate))
        return 0;
    return plan_.migrate.stormChunks;
}

void
Injector::noteEvictionStorm(Tick when, std::uint32_t chunks)
{
    counters_.stormEvictions += chunks;
    if (tracer_) {
        tracer_->instant(TraceCategory::Inject,
                         TraceName::InjectEvictStorm, instantLane_,
                         when, chunks);
    }
}

double
Injector::hostSlowFactor(Tick now)
{
    const InjectHost &h = plan_.host;
    if (h.slowRate <= 0.0 || h.slowFactor <= 1.0 ||
        !h.window.covers(now)) {
        return 1.0;
    }
    if (!hostRng_.chance(h.slowRate))
        return 1.0;
    ++counters_.slowPageTransfers;
    if (tracer_) {
        tracer_->instant(TraceCategory::Inject,
                         TraceName::InjectSlowPage, instantLane_, now,
                         static_cast<std::uint64_t>(h.slowFactor *
                                                    100.0));
    }
    return 1.0 / h.slowFactor;
}

Tick
Injector::launchJitter(Tick when)
{
    const InjectKernel &k = plan_.kernel;
    if (k.jitterRate <= 0.0 || k.jitterPs == 0)
        return 0;
    if (!kernelRng_.chance(k.jitterRate))
        return 0;
    Tick jitter = kernelRng_.uniformInt(k.jitterPs) + 1;
    ++counters_.jitteredLaunches;
    counters_.jitterPs += jitter;
    if (tracer_) {
        tracer_->instant(TraceCategory::Inject,
                         TraceName::InjectLaunchJitter, instantLane_,
                         when, jitter);
    }
    return jitter;
}

} // namespace uvmasync
