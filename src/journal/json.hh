/**
 * @file
 * Minimal JSON support for the run journal.
 *
 * The journal only needs to round-trip records it wrote itself, so
 * this is deliberately small: a streaming writer that emits one
 * compact object per line, and a recursive-descent reader tolerant
 * enough to re-load those lines. Doubles are carried as %a hexfloat
 * *strings* ("0x1.8p+3") — exact bit-for-bit round-trip with no
 * shortest-representation subtleties, while the file stays plain
 * JSON for external tools.
 */

#ifndef UVMASYNC_JOURNAL_JSON_HH
#define UVMASYNC_JOURNAL_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json_escape.hh"

namespace uvmasync
{

/** Exact (%a hexfloat) encoding of a double. */
std::string hexDouble(double value);

/**
 * Parse a hexDouble() string back; returns false on garbage (the
 * value is left untouched).
 */
bool parseHexDouble(const std::string &text, double &out);

/** @{
 * Fixed-width (16 lowercase hex digits) encoding of a 64-bit value —
 * the journal's and the result store's wire form for config hashes,
 * fingerprints and record checksums. parseHexU64 rejects any string
 * that hexU64 could not have produced.
 */
std::string hexU64(std::uint64_t value);
bool parseHexU64(const std::string &text, std::uint64_t &out);
/** @} */

/**
 * Streaming writer of one compact JSON value. Scopes are tracked so
 * commas are inserted automatically; keys only inside objects.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Member key; must be followed by exactly one value or scope. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(bool v);
    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);

    /** A double, encoded as an exact hexfloat string. */
    JsonWriter &hex(double v);

    const std::string &str() const { return out_; }

  private:
    void comma();

    std::string out_;
    std::vector<char> first_; //!< per-scope "no comma yet" flags
};

/**
 * A parsed JSON value. Numbers keep their raw token (the journal only
 * ever writes unsigned integers); objects keep member order.
 */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    std::string text; //!< String: decoded text; Number: raw token
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }

    /** Member lookup; null when absent or not an object. */
    const JsonValue *find(const std::string &name) const;

    /**
     * Decode as unsigned integer / hexfloat string; returns false on
     * kind or format mismatch.
     */
    bool asUint(std::uint64_t &out) const;
    bool asHex(double &out) const;
};

/**
 * Parse one JSON document; returns false (with a short reason in
 * @p error) on malformed input, an unescaped control character in
 * a string included. Trailing whitespace is allowed, trailing
 * garbage is not.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &error);

} // namespace uvmasync

#endif // UVMASYNC_JOURNAL_JSON_HH
