/**
 * @file
 * Buffer access-pattern taxonomy.
 *
 * The paper's central distinction is between "regular" workloads
 * (2DCONV, gemm, yolov3's gemm kernels) whose next touch a prefetcher
 * can predict, and "irregular" ones (lud, kmeans) where it cannot.
 * Each workload buffer carries an AccessPattern; the prefetcher, the
 * cache stream generator and the chunk-touch mapper all interpret it.
 */

#ifndef UVMASYNC_MEM_ACCESS_PATTERN_HH
#define UVMASYNC_MEM_ACCESS_PATTERN_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "common/types.hh"

namespace uvmasync
{

/** How a kernel walks a buffer. */
enum class AccessPattern
{
    Sequential, //!< streaming, unit stride (vector_seq, saxpy)
    Strided,    //!< constant non-unit stride (column walks, 3DCONV)
    Tiled,      //!< blocked with heavy intra-tile reuse (gemm, 2DCONV)
    Random,     //!< uniform random (vector_rand)
    Irregular,  //!< data-dependent, partially local (lud, kmeans, nw)
    Broadcast,  //!< whole buffer read by every block (gemv's vector)
};

/** Every pattern, in declaration order. */
inline constexpr std::array<AccessPattern, 6> allAccessPatterns = {
    AccessPattern::Sequential, AccessPattern::Strided,
    AccessPattern::Tiled,      AccessPattern::Random,
    AccessPattern::Irregular,  AccessPattern::Broadcast,
};

/** Human-readable pattern name. */
const char *accessPatternName(AccessPattern p);

/** Parse a pattern name; returns false (out untouched) if unknown. */
bool parseAccessPattern(const std::string &name, AccessPattern &out);

/** Comma-separated list of all valid pattern names (error text). */
std::string accessPatternNames();

/**
 * Prefetch predictability of a pattern in [0, 1]: the probability
 * that a history-based prefetcher's next-chunk guess is useful.
 * Values reflect the qualitative ordering the paper relies on.
 */
double patternRegularity(AccessPattern p);

/**
 * Spatial locality in [0, 1]: fraction of consecutive accesses that
 * land in an already-touched cache line neighbourhood. Drives the
 * analytic miss estimator and the synthetic stream generator.
 */
double patternLocality(AccessPattern p);

/**
 * Memory-side bytes moved per payload byte when the pattern streams
 * through 32 B sectors without L1 filtering (the cp.async path):
 * sequential walks fetch each sector once (1.0); random 4 B gathers
 * fetch a whole sector per element (8.0).
 */
double patternSectorTraffic(AccessPattern p);

/**
 * Generates a synthetic address stream with the statistics of a
 * pattern; the kernel executor feeds it through SetAssocCache to
 * measure per-configuration L1 miss rates (Figures 10 and 13).
 */
class StreamGenerator
{
  public:
    /**
     * @param pattern     buffer walk shape
     * @param footprint   bytes spanned by the walk
     * @param elementBytes access granularity
     * @param seed        RNG seed (deterministic streams)
     */
    StreamGenerator(AccessPattern pattern, Bytes footprint,
                    Bytes elementBytes, std::uint64_t seed);

    /** Next element address in the stream. */
    Addr next();

  private:
    AccessPattern pattern_;
    Bytes footprint_;
    Bytes elementBytes_;
    std::uint64_t numElements_;
    std::uint64_t tileSpan_; //!< Tiled: elements per tile
    Rng rng_;
    /**
     * Walk state, each counter wrapped in place of a modulo:
     * Sequential/Broadcast: the element; Strided: (step * stride)
     * mod numElements_, with lap_ the quotient; Tiled: the offset
     * in the tile, with lap_ the passes over it; Irregular: its
     * unwrapped cursor.
     */
    std::uint64_t cursor_ = 0;
    std::uint64_t lap_ = 0;
    std::uint64_t tileBase_ = 0;

    static constexpr std::uint64_t tileElements_ = 1024;
    static constexpr std::uint64_t strideElements_ = 16;
};

inline Addr
StreamGenerator::next()
{
    std::uint64_t element = 0;
    switch (pattern_) {
      case AccessPattern::Sequential:
      case AccessPattern::Broadcast:
        element = cursor_;
        if (++cursor_ == numElements_)
            cursor_ = 0;
        break;
      case AccessPattern::Strided:
        // (step * stride) mod n, plus the lap count mod stride.
        element = cursor_ + lap_ % strideElements_;
        while (element >= numElements_)
            element -= numElements_;
        cursor_ += strideElements_;
        while (cursor_ >= numElements_) {
            cursor_ -= numElements_;
            ++lap_;
        }
        break;
      case AccessPattern::Tiled: {
        // Walk a tile several times before moving to the next tile.
        constexpr std::uint64_t reuse = 4;
        element = tileBase_ + cursor_;
        if (element >= numElements_)
            element -= numElements_;
        if (++cursor_ == tileSpan_) {
            cursor_ = 0;
            if (++lap_ == reuse) {
                lap_ = 0;
                tileBase_ += tileSpan_;
                if (tileBase_ >= numElements_)
                    tileBase_ -= numElements_;
            }
        }
        break;
      }
      case AccessPattern::Random:
        element = rng_.uniformInt(numElements_);
        break;
      case AccessPattern::Irregular: {
        // Mostly-local walk with occasional long jumps: models
        // pointer-chasing / data-dependent indexing with some reuse.
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

} // namespace uvmasync

#endif // UVMASYNC_MEM_ACCESS_PATTERN_HH
