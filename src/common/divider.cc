#include "common/divider.hh"

#include "common/logging.hh"

namespace uvmasync
{

Divider::Divider(std::uint64_t d) : d_(d)
{
    UVMASYNC_ASSERT(d_ > 0, "division by zero");
    if (d_ == 1)
        return;
    // ceil(2^128 / d) == floor((2^128 - 1) / d) + 1; fits for d >= 2.
    U128 m = ~U128{0} / d_ + 1;
    mLo_ = static_cast<std::uint64_t>(m);
    mHi_ = static_cast<std::uint64_t>(m >> 64);
}

} // namespace uvmasync
