/**
 * @file
 * Bandwidth and rate helpers built on the Tick/Bytes base types.
 */

#ifndef UVMASYNC_COMMON_UNITS_HH
#define UVMASYNC_COMMON_UNITS_HH

#include <cmath>
#include <cstdint>

#include "common/types.hh"

namespace uvmasync
{

/**
 * A transfer rate expressed internally as bytes per second.
 *
 * The class exists so that link and memory models cannot accidentally
 * mix up "GB/s" and "bytes per tick" scalars; all conversions to time
 * go through transferTime().
 */
class Bandwidth
{
  public:
    constexpr Bandwidth() : bytesPerSecond_(0.0) {}

    /** Construct from raw bytes-per-second. */
    static constexpr Bandwidth
    fromBytesPerSecond(double bps)
    {
        return Bandwidth(bps);
    }

    /** Construct from gigabytes (1e9 bytes) per second. */
    static constexpr Bandwidth
    fromGBps(double gbps)
    {
        return Bandwidth(gbps * 1e9);
    }

    constexpr double bytesPerSecond() const { return bytesPerSecond_; }
    constexpr double gbps() const { return bytesPerSecond_ / 1e9; }

    constexpr bool valid() const { return bytesPerSecond_ > 0.0; }

    constexpr bool operator==(const Bandwidth &) const = default;

    /**
     * Time needed to move @p bytes at this rate, rounded up to a
     * whole picosecond so back-to-back transfers never alias.
     */
    Tick
    transferTime(Bytes bytes) const
    {
        if (bytesPerSecond_ <= 0.0)
            return maxTick;
        double ps = static_cast<double>(bytes) * 1e12 / bytesPerSecond_;
        return static_cast<Tick>(std::ceil(ps));
    }

    /** Scale the rate, e.g. to model efficiency factors. */
    constexpr Bandwidth
    scaled(double factor) const
    {
        return Bandwidth(bytesPerSecond_ * factor);
    }

  private:
    explicit constexpr Bandwidth(double bps) : bytesPerSecond_(bps) {}

    double bytesPerSecond_;
};

/**
 * A clock frequency; converts cycle counts to ticks.
 */
class Frequency
{
  public:
    constexpr Frequency() : hz_(0.0) {}

    static constexpr Frequency
    fromMHz(double mhz)
    {
        return Frequency(mhz * 1e6);
    }

    static constexpr Frequency
    fromGHz(double ghz)
    {
        return Frequency(ghz * 1e9);
    }

    constexpr double hz() const { return hz_; }
    constexpr double mhz() const { return hz_ / 1e6; }

    constexpr bool valid() const { return hz_ > 0.0; }

    constexpr bool operator==(const Frequency &) const = default;

    /** Picoseconds per clock cycle (as a double; callers round). */
    constexpr double
    periodPs() const
    {
        return hz_ > 0.0 ? 1e12 / hz_ : 0.0;
    }

    /** Ticks for a (possibly fractional) number of cycles. */
    Tick
    cyclesToTicks(double cycles) const
    {
        if (hz_ <= 0.0)
            return maxTick;
        return static_cast<Tick>(std::ceil(cycles * periodPs()));
    }

    /** Cycles elapsed in @p t ticks (fractional). */
    constexpr double
    ticksToCycles(Tick t) const
    {
        return static_cast<double>(t) * hz_ / 1e12;
    }

  private:
    explicit constexpr Frequency(double hz) : hz_(hz) {}

    double hz_;
};

} // namespace uvmasync

#endif // UVMASYNC_COMMON_UNITS_HH
