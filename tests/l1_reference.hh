/**
 * @file
 * Test-only reference L1 kernel: the nested-vector set-associative
 * LRU cache and the modulo-based stream walks that SetAssocCache and
 * StreamGenerator replaced. test_l1_twin drives both worlds with the
 * same inputs and requires identical hits, statistics and addresses.
 */

#ifndef UVMASYNC_TESTS_L1_REFERENCE_HH
#define UVMASYNC_TESTS_L1_REFERENCE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "mem/access_pattern.hh"
#include "mem/cache.hh"

namespace uvmasync::reference
{

/** Write-allocate LRU cache, one std::vector<Line> per set. */
class SetAssocCache
{
  public:
    SetAssocCache(Bytes capacity, Bytes lineBytes, unsigned ways)
        : lineBytes_(lineBytes), ways_(ways)
    {
        sets_.resize(capacity / (lineBytes_ * ways_));
        for (auto &set : sets_)
            set.lines.resize(ways_);
    }

    bool access(Addr addr, bool isWrite)
    {
        Addr line_addr = addr / lineBytes_;
        std::size_t set_idx = line_addr % sets_.size();
        Addr tag = line_addr / sets_.size();
        Set &set = sets_[set_idx];
        ++useClock_;

        int way = findLine(set, tag);
        if (way >= 0) {
            set.lines[static_cast<unsigned>(way)].lastUse = useClock_;
            if (isWrite)
                ++stats_.storeHits;
            else
                ++stats_.loadHits;
            return true;
        }

        if (isWrite)
            ++stats_.storeMisses;
        else
            ++stats_.loadMisses;

        unsigned victim = victimWay(set);
        set.lines[victim] = Line{true, tag, useClock_};
        return false;
    }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
    };

    struct Set
    {
        std::vector<Line> lines;
    };

    int findLine(const Set &set, Addr tag) const
    {
        for (unsigned w = 0; w < ways_; ++w) {
            if (set.lines[w].valid && set.lines[w].tag == tag)
                return static_cast<int>(w);
        }
        return -1;
    }

    unsigned victimWay(Set &set)
    {
        for (unsigned w = 0; w < ways_; ++w) {
            if (!set.lines[w].valid)
                return w;
        }
        unsigned victim = 0;
        for (unsigned w = 1; w < ways_; ++w) {
            if (set.lines[w].lastUse < set.lines[victim].lastUse)
                victim = w;
        }
        return victim;
    }

    Bytes lineBytes_;
    unsigned ways_;
    std::vector<Set> sets_;
    CacheStats stats_;
    std::uint64_t useClock_ = 0;
};

/** The stream walks, each a modulo of a growing cursor. */
class StreamGenerator
{
  public:
    StreamGenerator(AccessPattern pattern, Bytes footprint,
                    Bytes elementBytes, std::uint64_t seed)
        : pattern_(pattern), elementBytes_(elementBytes),
          numElements_(footprint / elementBytes), rng_(seed)
    {
    }

    Addr next()
    {
        std::uint64_t element = 0;
        switch (pattern_) {
          case AccessPattern::Sequential:
          case AccessPattern::Broadcast:
            element = cursor_++ % numElements_;
            break;
          case AccessPattern::Strided:
            element = (cursor_ * strideElements_) % numElements_ +
                      (cursor_ * strideElements_ / numElements_) %
                          strideElements_;
            element %= numElements_;
            ++cursor_;
            break;
          case AccessPattern::Tiled: {
            constexpr std::uint64_t reuse = 4;
            std::uint64_t tile_span =
                std::min(tileElements_, numElements_);
            element = (tileBase_ + tileCursor_ % tile_span) %
                      numElements_;
            ++tileCursor_;
            if (tileCursor_ >= tile_span * reuse) {
                tileCursor_ = 0;
                tileBase_ = (tileBase_ + tile_span) % numElements_;
            }
            break;
          }
          case AccessPattern::Random:
            element = rng_.uniformInt(numElements_);
            break;
          case AccessPattern::Irregular: {
            if (rng_.chance(0.70)) {
                element = (cursor_ + rng_.uniformInt(8)) % numElements_;
                ++cursor_;
            } else {
                cursor_ = rng_.uniformInt(numElements_);
                element = cursor_;
            }
            break;
          }
        }
        return element * elementBytes_;
    }

  private:
    AccessPattern pattern_;
    Bytes elementBytes_;
    std::uint64_t numElements_;
    Rng rng_;
    std::uint64_t cursor_ = 0;
    std::uint64_t tileBase_ = 0;
    std::uint64_t tileCursor_ = 0;

    static constexpr std::uint64_t tileElements_ = 1024;
    static constexpr std::uint64_t strideElements_ = 16;
};

} // namespace uvmasync::reference

#endif // UVMASYNC_TESTS_L1_REFERENCE_HH
