/**
 * @file
 * The `--key value` argument parser that `uvmasync` and
 * `uvmasync-serve` share.
 */

#ifndef UVMASYNC_TOOLS_ARGS_HH
#define UVMASYNC_TOOLS_ARGS_HH

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common/kv_config.hh"
#include "common/parse_number.hh"

namespace uvmasync
{

/** Minimal --key value argument parser. */
class Args
{
  public:
    Args(int argc, char **argv, int start)
    {
        // The flags the tools read only for their presence.
        const std::vector<std::string> bare = {
            "csv",     "metrics", "pinned", "no-store", "store-readonly",
            "no-lint", "no-wait", "repair", "paused"};
        for (int i = start; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) == 0) {
                std::string key = arg.substr(2);
                // A bare switch never takes a value. For any other
                // flag a following word is the value, and so is a
                // negative number, which the numeric flags refuse.
                if (std::count(bare.begin(), bare.end(), key) == 0 &&
                    i + 1 < argc &&
                    (argv[i + 1][0] != '-' ||
                     std::isdigit(static_cast<unsigned char>(
                         argv[i + 1][1]))))
                    values_[key] = argv[++i];
                else
                    values_[key] = "true";
            } else {
                positional_.push_back(arg);
            }
        }
    }

    std::string
    get(const std::string &key, const std::string &def = "") const
    {
        auto it = values_.find(key);
        return it == values_.end() ? def : it->second;
    }

    bool has(const std::string &key) const
    {
        return values_.count(key) > 0;
    }

    /**
     * The integer value of --@p key, or @p def when the flag is
     * absent. A malformed or negative value, or one outside
     * [@p min, max of T], exits 2 naming the flag, before anything
     * simulates.
     */
    template <typename T = std::uint64_t>
    T
    getUnsigned(const std::string &key, std::type_identity_t<T> def,
                std::type_identity_t<T> min = 0) const
    {
        if (!has(key))
            return def;
        constexpr std::uint64_t max = std::numeric_limits<T>::max();
        std::uint64_t value = 0;
        if (!parseUnsigned(get(key), value, max) || value < min) {
            std::fprintf(stderr,
                         "--%s needs an integer in [%llu, %llu], got "
                         "'%s'\n",
                         key.c_str(),
                         static_cast<unsigned long long>(min),
                         static_cast<unsigned long long>(max),
                         get(key).c_str());
            std::exit(2);
        }
        return static_cast<T>(value);
    }

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /**
     * Refuse any flag outside @p known (names without the dashes):
     * print it with a did-you-mean to stderr and return false, so the
     * verb exits 2 before anything simulates.
     */
    bool
    onlyFlags(const char *verb,
              std::initializer_list<std::vector<std::string>> known) const
    {
        std::vector<std::string> names;
        for (const std::vector<std::string> &group : known)
            names.insert(names.end(), group.begin(), group.end());
        for (const auto &[key, value] : values_) {
            if (std::find(names.begin(), names.end(), key) !=
                names.end())
                continue;
            std::string close = closestKey(key, names);
            std::fprintf(stderr, "%s: unknown flag '--%s'%s\n", verb,
                         key.c_str(),
                         close.empty()
                             ? ""
                             : (" (did you mean '--" + close + "'?)")
                                   .c_str());
            return false;
        }
        return true;
    }

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

/** --store DIR, falling back to the UVMASYNC_STORE environment. */
inline std::string
storeDirFlag(const Args &args)
{
    std::string dir = args.get("store");
    if (dir.empty()) {
        const char *env = std::getenv("UVMASYNC_STORE");
        if (env && *env)
            dir = env;
    }
    return dir;
}

} // namespace uvmasync

#endif // UVMASYNC_TOOLS_ARGS_HH
