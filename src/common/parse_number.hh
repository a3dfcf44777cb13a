/**
 * @file
 * Checked number parsing for flags, environment variables and job
 * files. std::stoul throws on "abc", and a bare strtoul takes "4x"
 * as 4 and wraps "-1" to ULONG_MAX; these refuse all three and leave
 * the message to the caller, which knows what it parsed.
 */

#ifndef UVMASYNC_COMMON_PARSE_NUMBER_HH
#define UVMASYNC_COMMON_PARSE_NUMBER_HH

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

namespace uvmasync
{

/**
 * Parse all of @p text as a decimal integer in [0, @p max]: digits
 * only, no sign or blanks. On failure @p out is left alone.
 */
inline bool
parseUnsigned(const std::string &text, std::uint64_t &out,
              std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    std::uint64_t value = 0;
    const char *last = text.data() + text.size();
    auto [end, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc() || end != last || value > max)
        return false;
    out = value;
    return true;
}

/** Parse all of @p text as a number (strtod syntax, nothing after). */
inline bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        return false;
    out = value;
    return true;
}

} // namespace uvmasync

#endif // UVMASYNC_COMMON_PARSE_NUMBER_HH
