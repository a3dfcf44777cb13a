/**
 * @file
 * Read one statistic of a simulator component the way Device::stats()
 * does: through its exportStats().
 */

#ifndef UVMASYNC_TESTS_STAT_OF_HH
#define UVMASYNC_TESTS_STAT_OF_HH

#include <cstdint>
#include <string>

#include "sim/sim_object.hh"

namespace uvmasync
{

/** Statistic @p key of @p object ("evictions", not "hbm.evictions"). */
inline std::uint64_t
statOf(const SimObject &object, const std::string &key)
{
    StatMap stats;
    object.exportStats(stats);
    return static_cast<std::uint64_t>(stats.at(object.name() + "." + key));
}

} // namespace uvmasync

#endif // UVMASYNC_TESTS_STAT_OF_HH
