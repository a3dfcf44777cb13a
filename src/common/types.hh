/**
 * @file
 * Fundamental scalar types shared by every simulator module.
 *
 * Simulated time is kept as an integer count of picoseconds so that
 * bandwidth divisions (bytes over GB/s links) never lose precision the
 * way double nanoseconds would across a multi-second simulation.
 */

#ifndef UVMASYNC_COMMON_TYPES_HH
#define UVMASYNC_COMMON_TYPES_HH

#include <cstdint>

namespace uvmasync
{

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** Size or offset in bytes. */
using Bytes = std::uint64_t;

/** Virtual address inside a simulated address space. */
using Addr = std::uint64_t;

/** Page number (address divided by page size). */
using PageNum = std::uint64_t;

/** A tick value that compares greater than every valid time. */
inline constexpr Tick maxTick = ~Tick(0);

/** @{ Tick construction helpers. */
constexpr Tick
picoseconds(std::uint64_t n)
{
    return n;
}

constexpr Tick
nanoseconds(std::uint64_t n)
{
    return n * 1000ull;
}

constexpr Tick
microseconds(std::uint64_t n)
{
    return n * 1000ull * 1000ull;
}

constexpr Tick
milliseconds(std::uint64_t n)
{
    return n * 1000ull * 1000ull * 1000ull;
}

constexpr Tick
seconds(std::uint64_t n)
{
    return n * 1000ull * 1000ull * 1000ull * 1000ull;
}
/** @} */

/** @{ Tick inspection helpers (lossy, for reporting). */
constexpr double
toNanoseconds(Tick t)
{
    return static_cast<double>(t) / 1e3;
}

constexpr double
toMicroseconds(Tick t)
{
    return static_cast<double>(t) / 1e6;
}

constexpr double
toMilliseconds(Tick t)
{
    return static_cast<double>(t) / 1e9;
}

constexpr double
toSeconds(Tick t)
{
    return static_cast<double>(t) / 1e12;
}
/** @} */

/** @{ Byte-size literal helpers. */
constexpr Bytes
kib(std::uint64_t n)
{
    return n * 1024ull;
}

constexpr Bytes
mib(std::uint64_t n)
{
    return n * 1024ull * 1024ull;
}

constexpr Bytes
gib(std::uint64_t n)
{
    return n * 1024ull * 1024ull * 1024ull;
}
/** @} */

} // namespace uvmasync

#endif // UVMASYNC_COMMON_TYPES_HH
