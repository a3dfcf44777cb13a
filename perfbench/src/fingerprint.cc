#include "fingerprint.hh"

#include <thread>

#include "journal/json.hh"
#include "store/fingerprint.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PERFBENCH_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define PERFBENCH_TSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define PERFBENCH_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define PERFBENCH_TSAN 1
#endif

namespace perfbench
{

Fingerprint
currentFingerprint()
{
    Fingerprint f;
    f.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
    f.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    f.compiler = "gcc " __VERSION__;
#else
    f.compiler = "unknown";
#endif
    f.buildType = PERFBENCH_BUILD_TYPE;
    std::string san;
#if defined(PERFBENCH_ASAN)
    san += "address";
#endif
#if defined(PERFBENCH_TSAN)
    san += san.empty() ? "thread" : ",thread";
#endif
    f.sanitizers = san.empty() ? "none" : san;
#ifndef NDEBUG
    f.assertions = true;
#endif
    f.modelSemanticsVersion = uvmasync::modelSemanticsVersion;
    return f;
}

std::string
Fingerprint::toJson() const
{
    using uvmasync::jsonEscape;
    return "{\"nproc\":" + std::to_string(nproc) + ",\"compiler\":\"" +
           jsonEscape(compiler) + "\",\"build_type\":\"" +
           jsonEscape(buildType) + "\",\"sanitizers\":\"" +
           jsonEscape(sanitizers) + "\",\"assertions\":" +
           (assertions ? "true" : "false") +
           ",\"model_semantics_version\":" +
           std::to_string(modelSemanticsVersion) + "}";
}

std::string
Fingerprint::refusal() const
{
    if (buildType != "Release" && buildType != "RelWithDebInfo")
        return "build type '" + buildType +
               "' is not an optimized build (use Release or "
               "RelWithDebInfo)";
    if (sanitizers != "none")
        return "built with the " + sanitizers + " sanitizer";
    if (assertions)
        return "built with assertions (NDEBUG unset)";
    return "";
}

} // namespace perfbench
