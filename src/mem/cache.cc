#include "mem/cache.hh"

#include <bit>
#include <utility>

#include "common/logging.hh"

namespace uvmasync
{

double
CacheStats::loadMissRate() const
{
    std::uint64_t total = loads();
    return total ? static_cast<double>(loadMisses) /
                   static_cast<double>(total)
                 : 0.0;
}

double
CacheStats::storeMissRate() const
{
    std::uint64_t total = stores();
    return total ? static_cast<double>(storeMisses) /
                   static_cast<double>(total)
                 : 0.0;
}

namespace
{

/** Set count of a validated geometry. */
std::uint64_t
setCount(const std::string &name, Bytes capacity, Bytes lineBytes,
         unsigned ways)
{
    UVMASYNC_ASSERT(lineBytes > 0 && ways > 0, "%s: bad geometry",
                    name.c_str());
    UVMASYNC_ASSERT(capacity % (lineBytes * ways) == 0,
                    "%s: capacity %llu not divisible by line*ways",
                    name.c_str(),
                    static_cast<unsigned long long>(capacity));
    std::uint64_t sets = capacity / (lineBytes * ways);
    UVMASYNC_ASSERT(sets > 0, "%s: zero sets", name.c_str());
    return sets;
}

} // namespace

SetAssocCache::SetAssocCache(std::string name, Bytes capacity,
                             Bytes lineBytes, unsigned ways)
    : lineBytes_(lineBytes), ways_(ways),
      lineShift_(std::has_single_bit(lineBytes)
                     ? std::countr_zero(lineBytes)
                     : -1),
      setDiv_(setCount(name, capacity, lineBytes, ways)),
      tags_(setDiv_.divisor() * ways_, ~Addr{0}),
      lastUse_(setDiv_.divisor() * ways_, 0)
{
}

} // namespace uvmasync
