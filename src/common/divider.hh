/**
 * @file
 * Division by a divisor fixed at construction, without a division
 * instruction. Shared by the L1 cache's set index (mem/cache.hh) and
 * the UVM block-to-chunk span arithmetic (gpu/demand_map.hh).
 */

#ifndef UVMASYNC_COMMON_DIVIDER_HH
#define UVMASYNC_COMMON_DIVIDER_HH

#include <cstdint>

namespace uvmasync
{

/**
 * Exact n / d for a divisor fixed at construction, without a
 * division instruction: M = ceil(2^128 / d) and n / d is the high
 * 64 bits of the 192-bit product M * n (Lemire, Kaser and Kurz,
 * "Faster remainder by direct computation", 2019). Exact for every
 * 64-bit n and every d >= 1; d == 1 is the identity. n % d is then
 * n - d * (n / d).
 */
class Divider
{
  public:
    explicit Divider(std::uint64_t d);

    std::uint64_t divisor() const { return d_; }

    std::uint64_t
    quotient(std::uint64_t n) const
    {
        if (d_ == 1)
            return n;
        U128 lo = static_cast<U128>(n) * mLo_;
        U128 hi = static_cast<U128>(n) * mHi_;
        return static_cast<std::uint64_t>((hi + (lo >> 64)) >> 64);
    }

    /** n % d, as n - d * (n / d). */
    std::uint64_t
    remainder(std::uint64_t n) const
    {
        return n - d_ * quotient(n);
    }

  private:
    using U128 = unsigned __int128;

    std::uint64_t d_;
    std::uint64_t mLo_ = 0; //!< low 64 bits of M
    std::uint64_t mHi_ = 0; //!< high 64 bits of M
};

} // namespace uvmasync

#endif // UVMASYNC_COMMON_DIVIDER_HH
