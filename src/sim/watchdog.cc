#include "sim/watchdog.hh"

#include "common/logging.hh"

namespace uvmasync
{

const char *
watchdogTripName(WatchdogTrip kind)
{
    switch (kind) {
      case WatchdogTrip::SimTime: return "sim_time";
      case WatchdogTrip::EventCount: return "event_count";
      case WatchdogTrip::Livelock: return "livelock";
    }
    panic("unknown watchdog trip %d", static_cast<int>(kind));
}

void
Watchdog::arm(const WatchdogConfig &cfg)
{
    cfg_ = cfg;
    armed_ = true;
    events_ = 0;
    stallRun_ = 0;
    lastAdvance_ = 0;
}

void
Watchdog::onEvent(Tick now)
{
    if (!armed_)
        return;
    ++events_;
    if (cfg_.maxEvents && events_ > cfg_.maxEvents)
        trip(WatchdogTrip::EventCount, now);
    if (now > lastAdvance_) {
        lastAdvance_ = now;
        stallRun_ = 0;
    } else if (cfg_.maxStallEvents &&
               ++stallRun_ >= cfg_.maxStallEvents) {
        trip(WatchdogTrip::Livelock, now);
    }
    checkSimTime(now);
}

void
Watchdog::checkSimTime(Tick now)
{
    if (armed_ && cfg_.maxSimTime && now > cfg_.maxSimTime)
        trip(WatchdogTrip::SimTime, now);
}

void
Watchdog::trip(WatchdogTrip kind, Tick now)
{
    if (tracer_ && tracer_->enabled(TraceCategory::Sim)) {
        // The lane is created only at the moment a trip actually
        // happens, so clean traced runs keep their exact lane set
        // (and therefore byte-identical exports).
        std::uint32_t lane = tracer_->lane("watchdog");
        tracer_->instant(TraceCategory::Sim, TraceName::WatchdogTrip,
                         lane, now, events_,
                         watchdogTripName(kind));
    }
    double ms = static_cast<double>(now) / 1e9;
    std::string msg;
    switch (kind) {
      case WatchdogTrip::SimTime:
        msg = strfmt("watchdog: simulated time %.3f ms exceeds the "
                     "ceiling %.3f ms (watchdog.max_sim_ms)",
                     ms, static_cast<double>(cfg_.maxSimTime) / 1e9);
        break;
      case WatchdogTrip::EventCount:
        msg = strfmt("watchdog: %llu events dispatched exceeds the "
                     "ceiling %llu (watchdog.max_events) at "
                     "t=%.3f ms",
                     static_cast<unsigned long long>(events_),
                     static_cast<unsigned long long>(cfg_.maxEvents),
                     ms);
        break;
      case WatchdogTrip::Livelock:
        msg = strfmt(
            "watchdog: livelock — %llu consecutive events without "
            "simulated-time advance at t=%.3f ms "
            "(watchdog.max_stall_events)",
            static_cast<unsigned long long>(stallRun_), ms);
        break;
    }
    throw PointTimeout(msg, kind, now, events_);
}

} // namespace uvmasync
