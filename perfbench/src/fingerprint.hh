/**
 * @file
 * Machine and build fingerprint recorded with every result. Two
 * results are comparable only when their fingerprints are equal.
 */

#ifndef PERFBENCH_FINGERPRINT_HH
#define PERFBENCH_FINGERPRINT_HH

#include <string>

namespace perfbench
{

struct Fingerprint
{
    unsigned nproc = 0;
    std::string compiler;
    std::string buildType;
    std::string sanitizers; //!< "none" or a comma list
    bool assertions = false; //!< built without NDEBUG
    unsigned modelSemanticsVersion = 0;

    /** One JSON object. */
    std::string toJson() const;

    /**
     * Why this build must not be timed (Debug, sanitizer or
     * assertion-enabled builds), or "" when it may.
     */
    std::string refusal() const;
};

/** The fingerprint of this process and build. */
Fingerprint currentFingerprint();

} // namespace perfbench

#endif // PERFBENCH_FINGERPRINT_HH
