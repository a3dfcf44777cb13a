/**
 * @file
 * JSON string escaping, shared by every JSON writer: the journal and
 * store records, the Chrome trace export and the SARIF export.
 */

#ifndef UVMASYNC_COMMON_JSON_ESCAPE_HH
#define UVMASYNC_COMMON_JSON_ESCAPE_HH

#include <string>

namespace uvmasync
{

/**
 * Escape a string for embedding in a JSON document (no quotes):
 * quotes, backslashes and every control character below 0x20.
 */
std::string jsonEscape(const std::string &text);

} // namespace uvmasync

#endif // UVMASYNC_COMMON_JSON_ESCAPE_HH
