/**
 * @file
 * Per-point progress ceilings.
 *
 * The simulator's components are analytic busy-until resources; the
 * ones that model completions (PCIe link transfers, migration-engine
 * evictions) report each one to a Watchdog, which bounds a runaway or
 * livelocked point by simulated time, completion count and same-tick
 * stall length.
 */

#ifndef UVMASYNC_SIM_WATCHDOG_HH
#define UVMASYNC_SIM_WATCHDOG_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/types.hh"
#include "trace/trace.hh"

namespace uvmasync
{

/**
 * Default ceiling on observed events per point. Generous: the
 * largest registry job moves a few million chunks; only a genuinely
 * runaway simulation (or a pathological inject plan) gets here.
 */
inline constexpr std::uint64_t defaultWatchdogMaxEvents =
    1000000000ull;

/**
 * Default livelock threshold: consecutive events with no
 * simulated-time advance. Legitimate same-tick runs exist — evicting
 * a full 40 GiB device of clean chunks is ~160k zero-cost events —
 * so the default sits far above the worst honest case.
 */
inline constexpr std::uint64_t defaultWatchdogMaxStallEvents =
    2000000ull;

/** Ceilings enforced by the Watchdog; 0 disables a ceiling. */
struct WatchdogConfig
{
    /** Ceiling on simulated time; 0 = unlimited. */
    Tick maxSimTime = 0;

    /** Ceiling on observed-event count; 0 = unlimited. */
    std::uint64_t maxEvents = defaultWatchdogMaxEvents;

    /**
     * Consecutive events without simulated-time advance before the
     * run is declared livelocked; 0 = unlimited.
     */
    std::uint64_t maxStallEvents = defaultWatchdogMaxStallEvents;
};

/** Which ceiling a PointTimeout tripped. */
enum class WatchdogTrip
{
    SimTime,    //!< simulated time exceeded maxSimTime
    EventCount, //!< observed events exceeded maxEvents
    Livelock,   //!< maxStallEvents events with no time advance
};

/** Stable trip-kind slug ("sim_time", "event_count", "livelock"). */
const char *watchdogTripName(WatchdogTrip kind);

/**
 * Structured failure of one simulated point: a watchdog ceiling was
 * exceeded. Like TransferAborted, this fails only the point that
 * raised it — the parallel engine catches it per point (under its
 * FatalThrowScope) and quarantines the point after its retry budget.
 */
class PointTimeout : public std::runtime_error
{
  public:
    PointTimeout(const std::string &what, WatchdogTrip kind,
                 Tick when, std::uint64_t events)
        : std::runtime_error(what), kind_(kind), when_(when),
          events_(events)
    {
    }

    WatchdogTrip kind() const { return kind_; }

    /** Simulated time at the trip. */
    Tick when() const { return when_; }

    /** Events observed up to the trip. */
    std::uint64_t events() const { return events_; }

  private:
    WatchdogTrip kind_;
    Tick when_;
    std::uint64_t events_;
};

/**
 * Progress monitor over one simulated execution.
 *
 * The busy-until components feed it: PCIe link transfers and
 * migration-engine evictions call onEvent() per modelled completion.
 * A ceiling violation throws PointTimeout; the watchdog never
 * recovers the run, it only bounds the damage to one point.
 */
class Watchdog
{
  public:
    Watchdog() = default;

    /** Arm with @p cfg and reset all counters (start of a run). */
    void arm(const WatchdogConfig &cfg);

    /** Events observed since arm(). */
    std::uint64_t events() const { return events_; }

    /**
     * Emit a WatchdogTrip instant into @p tracer when a ceiling
     * trips (lane "watchdog", created lazily so clean traced runs
     * stay byte-identical). Pass nullptr to detach.
     */
    void setTrace(Tracer *tracer) { tracer_ = tracer; }

    /**
     * Observe one simulated event completing at @p now. Throws
     * PointTimeout when a ceiling is exceeded.
     */
    void onEvent(Tick now);

    /** Check only the simulated-time ceiling (phase boundaries). */
    void checkSimTime(Tick now);

  private:
    [[noreturn]] void trip(WatchdogTrip kind, Tick now);

    WatchdogConfig cfg_;
    bool armed_ = false;
    std::uint64_t events_ = 0;
    std::uint64_t stallRun_ = 0;
    Tick lastAdvance_ = 0;
    Tracer *tracer_ = nullptr;
};

} // namespace uvmasync

#endif // UVMASYNC_SIM_WATCHDOG_HH
