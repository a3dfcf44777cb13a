/**
 * @file
 * A set-associative LRU cache model.
 *
 * Used to simulate the A100's unified L1/texture cache under the five
 * data-transfer configurations (Figures 10 and 13 of the paper). The
 * kernel executor drives it with a sampled per-block access stream;
 * full-footprint simulation is unnecessary because miss behaviour is
 * periodic in the tile structure.
 */

#ifndef UVMASYNC_MEM_CACHE_HH
#define UVMASYNC_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/divider.hh"
#include "common/types.hh"

namespace uvmasync
{

/** Per-class hit/miss counters. */
struct CacheStats
{
    std::uint64_t loadHits = 0;
    std::uint64_t loadMisses = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;

    std::uint64_t loads() const { return loadHits + loadMisses; }
    std::uint64_t stores() const { return storeHits + storeMisses; }

    /** Load miss rate in [0, 1]; 0 when there were no loads. */
    double loadMissRate() const;

    /** Store miss rate in [0, 1]; 0 when there were no stores. */
    double storeMissRate() const;
};

/**
 * Set-associative, write-allocate LRU cache. Tags and last-use stamps
 * live in two flat set-major arrays; one pass over a set's ways both
 * finds the tag and picks the victim.
 */
class SetAssocCache
{
  public:
    /**
     * @param name      name in geometry errors
     * @param capacity  total bytes (must be a multiple of line * ways)
     * @param lineBytes cache line size
     * @param ways      associativity
     */
    SetAssocCache(std::string name, Bytes capacity, Bytes lineBytes,
                  unsigned ways);

    Bytes lineBytes() const { return lineBytes_; }
    unsigned ways() const { return ways_; }
    std::size_t sets() const { return setDiv_.divisor(); }

    /**
     * Perform one access. @return true on hit.
     * Misses allocate (write-allocate for stores).
     */
    bool access(Addr addr, bool isWrite);

    const CacheStats &stats() const { return stats_; }

  private:
    Bytes lineBytes_;
    unsigned ways_;
    /** log2(lineBytes_), or -1 when the line size is not a power of 2. */
    int lineShift_;
    Divider setDiv_;
    /**
     * Way w of set s is slot s * ways_ + w. An invalid way holds tag
     * ~Addr{0} and last use 0; every valid way's last use is a
     * distinct clock value >= 1, so the first minimum last use is the
     * first invalid way, else the LRU way.
     */
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> lastUse_;
    CacheStats stats_;
    std::uint64_t useClock_ = 0;
};

inline bool
SetAssocCache::access(Addr addr, bool isWrite)
{
    Addr line = lineShift_ >= 0 ? addr >> lineShift_ : addr / lineBytes_;
    Addr tag = setDiv_.quotient(line);
    std::size_t base = (line - tag * setDiv_.divisor()) * ways_;
    Addr *tags = &tags_[base];
    std::uint64_t *lastUse = &lastUse_[base];
    ++useClock_;

    unsigned victim = 0;
    for (unsigned w = 0; w < ways_; ++w) {
        // lastUse 0 marks an invalid way: a tag of ~0 (line size 1,
        // one set) must not hit the sentinel.
        if (tags[w] == tag && lastUse[w] != 0) {
            lastUse[w] = useClock_;
            if (isWrite)
                ++stats_.storeHits;
            else
                ++stats_.loadHits;
            return true;
        }
        if (lastUse[w] < lastUse[victim])
            victim = w;
    }

    if (isWrite)
        ++stats_.storeMisses;
    else
        ++stats_.loadMisses;
    tags[victim] = tag;
    lastUse[victim] = useClock_;
    return false;
}

} // namespace uvmasync

#endif // UVMASYNC_MEM_CACHE_HH
