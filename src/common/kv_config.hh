/**
 * @file
 * A minimal key=value configuration store with typed getters —
 * enough to override testbed parameters from a file without
 * recompiling (ini-style: `#` comments, `key = value` lines,
 * optional `[section]` headers that prefix keys with "section.").
 */

#ifndef UVMASYNC_COMMON_KV_CONFIG_HH
#define UVMASYNC_COMMON_KV_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace uvmasync
{

/**
 * A key assigned more than once in one source; the later value
 * silently wins, which the linter reports as a shadowed key.
 */
struct KvShadowedKey
{
    std::string key;
    int firstLine = 0; //!< line of the assignment that is shadowed
    int line = 0;      //!< line of the assignment that wins
};

/**
 * Flat string key -> string value map with parsing helpers.
 */
class KvConfig
{
  public:
    KvConfig() = default;

    /** Parse ini-style text; later keys override earlier ones. */
    static KvConfig fromString(const std::string &text,
                               const std::string &sourceName =
                                   "<string>");

    /** Load from a file; fatal() if unreadable. */
    static KvConfig fromFile(const std::string &path);

    /** Where the config came from (file path or "<string>"). */
    const std::string &sourceName() const { return sourceName_; }

    /** 1-based line a key was (last) assigned on; 0 if unknown. */
    int lineOf(const std::string &key) const;

    /** Keys assigned more than once, in assignment order. */
    const std::vector<KvShadowedKey> &shadowedKeys() const
    {
        return shadowed_;
    }

    bool has(const std::string &key) const;

    /** All keys, sorted. */
    std::vector<std::string> keys() const;

    /** Raw string value; @p def if absent. */
    std::string getString(const std::string &key,
                          const std::string &def = "") const;

    /** Floating point; fatal() on malformed value. */
    double getDouble(const std::string &key, double def) const;

    /** Integer; fatal() on malformed value. */
    std::int64_t getInt(const std::string &key,
                        std::int64_t def) const;

    /** Boolean: true/false/1/0/yes/no; fatal() otherwise. */
    bool getBool(const std::string &key, bool def) const;

    /** Set (or override) a value programmatically. */
    void set(const std::string &key, const std::string &value);

  private:
    std::map<std::string, std::string> values_;
    std::map<std::string, int> lines_;
    std::vector<KvShadowedKey> shadowed_;
    std::string sourceName_ = "<string>";
};

/**
 * Closest candidate to @p key by edit distance, for "did you mean"
 * hints on typo'd config keys. Returns "" when nothing is within a
 * plausible typo distance (<= 1/3 of the key length, minimum 2).
 */
std::string closestKey(const std::string &key,
                       const std::vector<std::string> &candidates);

} // namespace uvmasync

#endif // UVMASYNC_COMMON_KV_CONFIG_HH
