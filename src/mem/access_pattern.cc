#include "mem/access_pattern.hh"

#include <algorithm>

#include "common/logging.hh"

namespace uvmasync
{

const char *
accessPatternName(AccessPattern p)
{
    switch (p) {
      case AccessPattern::Sequential: return "sequential";
      case AccessPattern::Strided: return "strided";
      case AccessPattern::Tiled: return "tiled";
      case AccessPattern::Random: return "random";
      case AccessPattern::Irregular: return "irregular";
      case AccessPattern::Broadcast: return "broadcast";
    }
    panic("unknown access pattern %d", static_cast<int>(p));
}

bool
parseAccessPattern(const std::string &name, AccessPattern &out)
{
    for (AccessPattern p : allAccessPatterns) {
        if (name == accessPatternName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

std::string
accessPatternNames()
{
    std::string out;
    for (AccessPattern p : allAccessPatterns) {
        if (!out.empty())
            out += ", ";
        out += accessPatternName(p);
    }
    return out;
}

double
patternRegularity(AccessPattern p)
{
    switch (p) {
      case AccessPattern::Sequential: return 0.97;
      case AccessPattern::Strided: return 0.90;
      case AccessPattern::Tiled: return 0.92;
      case AccessPattern::Broadcast: return 0.95;
      case AccessPattern::Random: return 0.08;
      case AccessPattern::Irregular: return 0.25;
    }
    panic("unknown access pattern %d", static_cast<int>(p));
}

double
patternLocality(AccessPattern p)
{
    switch (p) {
      case AccessPattern::Sequential: return 0.95;
      case AccessPattern::Strided: return 0.45;
      case AccessPattern::Tiled: return 0.85;
      case AccessPattern::Broadcast: return 0.90;
      case AccessPattern::Random: return 0.02;
      case AccessPattern::Irregular: return 0.30;
    }
    panic("unknown access pattern %d", static_cast<int>(p));
}

double
patternSectorTraffic(AccessPattern p)
{
    switch (p) {
      case AccessPattern::Sequential: return 1.0;
      case AccessPattern::Strided: return 4.0;
      case AccessPattern::Tiled: return 0.9;
      case AccessPattern::Broadcast: return 0.95;
      case AccessPattern::Random: return 8.0;
      case AccessPattern::Irregular: return 3.0;
    }
    panic("unknown access pattern %d", static_cast<int>(p));
}

StreamGenerator::StreamGenerator(AccessPattern pattern, Bytes footprint,
                                 Bytes elementBytes, std::uint64_t seed)
    : pattern_(pattern), footprint_(footprint),
      elementBytes_(elementBytes), rng_(seed)
{
    // Caller-supplied geometry: report it as a configuration error
    // with the constraint spelled out instead of asserting.
    if (elementBytes_ == 0 || footprint_ < elementBytes_)
        fatal("access stream over '%s': footprint (%llu B) must be "
              ">= element size (%llu B) and the element size >= 1",
              accessPatternName(pattern_),
              static_cast<unsigned long long>(footprint_),
              static_cast<unsigned long long>(elementBytes_));
    numElements_ = footprint_ / elementBytes_;
    tileSpan_ = std::min(tileElements_, numElements_);
}

} // namespace uvmasync
