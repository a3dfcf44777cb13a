#include "common/kv_config.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/parse_number.hh"

namespace uvmasync
{

namespace
{

std::string
trim(const std::string &text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

} // namespace

KvConfig
KvConfig::fromString(const std::string &text,
                     const std::string &sourceName)
{
    KvConfig cfg;
    cfg.sourceName_ = sourceName;
    std::istringstream iss(text);
    std::string line;
    std::string section;
    int lineno = 0;
    while (std::getline(iss, line)) {
        ++lineno;
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        if (line.front() == '[') {
            if (line.back() != ']')
                fatal("config line %d: unterminated section header",
                      lineno);
            section = trim(line.substr(1, line.size() - 2));
            continue;
        }
        std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            fatal("config line %d: expected key = value", lineno);
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            fatal("config line %d: empty key", lineno);
        if (!section.empty())
            key = section + "." + key;
        auto it = cfg.values_.find(key);
        if (it != cfg.values_.end())
            cfg.shadowed_.push_back(
                KvShadowedKey{key, cfg.lines_[key], lineno});
        cfg.values_[key] = value;
        cfg.lines_[key] = lineno;
    }
    return cfg;
}

KvConfig
KvConfig::fromFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        fatal("cannot open config file '%s'", path.c_str());
    std::ostringstream oss;
    oss << file.rdbuf();
    return fromString(oss.str(), path);
}

int
KvConfig::lineOf(const std::string &key) const
{
    auto it = lines_.find(key);
    return it == lines_.end() ? 0 : it->second;
}

bool
KvConfig::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

std::vector<std::string>
KvConfig::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &[key, value] : values_)
        out.push_back(key);
    return out;
}

std::string
KvConfig::getString(const std::string &key,
                    const std::string &def) const
{
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

double
KvConfig::getDouble(const std::string &key, double def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    double value = 0.0;
    if (!parseNumber(it->second, value))
        fatal("config key '%s': '%s' is not a number", key.c_str(),
              it->second.c_str());
    return value;
}

std::int64_t
KvConfig::getInt(const std::string &key, std::int64_t def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    long long value = std::strtoll(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0')
        fatal("config key '%s': '%s' is not an integer", key.c_str(),
              it->second.c_str());
    return value;
}

bool
KvConfig::getBool(const std::string &key, bool def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "no")
        return false;
    fatal("config key '%s': '%s' is not a boolean", key.c_str(),
          v.c_str());
}

void
KvConfig::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

namespace
{

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    // Classic two-row Levenshtein.
    std::vector<std::size_t> prev(b.size() + 1);
    std::vector<std::size_t> cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

} // namespace

std::string
closestKey(const std::string &key,
           const std::vector<std::string> &candidates)
{
    std::size_t bestDist = ~std::size_t(0);
    std::string best;
    for (const std::string &cand : candidates) {
        std::size_t d = editDistance(key, cand);
        if (d < bestDist) {
            bestDist = d;
            best = cand;
        }
    }
    std::size_t limit = std::max<std::size_t>(2, key.size() / 3);
    return bestDist <= limit ? best : "";
}

} // namespace uvmasync
