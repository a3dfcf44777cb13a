#include "workloads/job_loader.hh"

#include <sstream>
#include <vector>

#include "analysis/passes.hh"
#include "common/logging.hh"
#include "common/parse_number.hh"
#include "common/stable_hash.hh"

namespace uvmasync
{

namespace
{

std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::istringstream iss(text);
    std::string item;
    while (std::getline(iss, item, sep)) {
        std::size_t begin = item.find_first_not_of(" \t");
        std::size_t end = item.find_last_not_of(" \t");
        if (begin == std::string::npos)
            continue;
        out.push_back(item.substr(begin, end - begin + 1));
    }
    return out;
}

AccessPattern
parsePattern(const std::string &name)
{
    AccessPattern p;
    if (!parseAccessPattern(name, p))
        fatal("job file: unknown access pattern '%s' (valid: %s)",
              name.c_str(), accessPatternNames().c_str());
    return p;
}

std::size_t
parseIndex(const std::string &text, const char *what)
{
    std::uint64_t value = 0;
    if (!parseUnsigned(text, value))
        fatal("job file: %s '%s' is not a non-negative integer",
              what, text.c_str());
    return static_cast<std::size_t>(value);
}

double
parseFraction(const std::string &text, const char *what)
{
    double value = 0.0;
    if (!parseNumber(text, value))
        fatal("job file: %s '%s' is not a number", what,
              text.c_str());
    return value;
}

Bytes
parseSize(const KvConfig &kv, const std::string &prefix)
{
    if (kv.has(prefix + ".bytes"))
        return static_cast<Bytes>(kv.getInt(prefix + ".bytes", 0));
    if (kv.has(prefix + ".kib"))
        return kib(static_cast<Bytes>(
            kv.getInt(prefix + ".kib", 0)));
    if (kv.has(prefix + ".mib"))
        return mib(static_cast<Bytes>(
            kv.getInt(prefix + ".mib", 0)));
    if (kv.has(prefix + ".gib"))
        return gib(static_cast<Bytes>(
            kv.getInt(prefix + ".gib", 0)));
    fatal("job file: %s needs one of bytes/kib/mib/gib",
          prefix.c_str());
}

KernelBufferUse
parseBufferUse(const std::string &spec, std::size_t bufferCount)
{
    std::vector<std::string> parts = splitList(spec, ':');
    if (parts.size() < 3)
        fatal("job file: buffer use '%s' needs at least "
              "id:pattern:rw",
              spec.c_str());

    KernelBufferUse use;
    use.bufferId = parseIndex(parts[0], "buffer id");
    if (use.bufferId >= bufferCount)
        fatal("job file: buffer id %zu out of range (%zu buffers)",
              use.bufferId, bufferCount);
    use.pattern = parsePattern(parts[1]);

    const std::string &rw = parts[2];
    use.read = rw.find('r') != std::string::npos;
    use.written = rw.find('w') != std::string::npos;
    if (!use.read && !use.written)
        fatal("job file: buffer use '%s' must read and/or write",
              spec.c_str());

    for (std::size_t i = 3; i < parts.size(); ++i) {
        if (parts[i] == "nostage") {
            use.stagedThroughShared = false;
        } else {
            use.touchedFraction =
                parseFraction(parts[i], "touched fraction");
            if (!(use.touchedFraction >= 0.0) ||
                use.touchedFraction > 1.0)
                fatal("job file: touched fraction %s of buffer use "
                      "'%s' must be in [0, 1]",
                      parts[i].c_str(), spec.c_str());
        }
    }
    return use;
}

} // namespace

Job
jobFromConfig(const KvConfig &kv, DiagnosticEngine *diags)
{
    // Surface unknown/shadowed keys instead of silently ignoring
    // them: into the caller's engine when linting, fatal otherwise.
    DiagnosticEngine local;
    DiagnosticEngine &sink = diags ? *diags : local;
    checkKvKeys(kv, knownJobFileKeys(kv), "job description", sink);
    if (!diags && local.hasErrors()) {
        std::string listing;
        for (const Diagnostic &d : local.all()) {
            if (d.severity == Severity::Error)
                listing += "\n  " + d.format();
        }
        fatal("job file %s: unknown keys:%s",
              kv.sourceName().c_str(), listing.c_str());
    }

    Job job;
    job.name = kv.getString("job.name", "custom");
    job.sequenceRepeats = static_cast<std::uint32_t>(
        kv.getInt("job.repeats", 1));
    job.prefetchEachLaunch =
        kv.getBool("job.prefetch_each_launch", false);

    for (std::size_t i = 0;; ++i) {
        std::string prefix = "buffer." + std::to_string(i);
        if (!kv.has(prefix + ".name"))
            break;
        JobBuffer buf;
        buf.name = kv.getString(prefix + ".name");
        buf.bytes = parseSize(kv, prefix);
        buf.hostInit = kv.getBool(prefix + ".host_init", true);
        buf.hostConsumed =
            kv.getBool(prefix + ".host_consumed", false);
        job.buffers.push_back(buf);
    }
    if (job.buffers.empty())
        fatal("job file: no [buffer.0] section");

    for (std::size_t i = 0;; ++i) {
        std::string prefix = "kernel." + std::to_string(i);
        if (!kv.has(prefix + ".name"))
            break;
        KernelDescriptor kd = makeStreamKernel(
            kv.getString(prefix + ".name"),
            static_cast<std::uint64_t>(
                kv.getInt(prefix + ".blocks", 4096)),
            static_cast<std::uint32_t>(
                kv.getInt(prefix + ".threads", 256)),
            mib(static_cast<Bytes>(
                kv.getInt(prefix + ".total_load_mib", 64))),
            kib(static_cast<Bytes>(
                kv.getInt(prefix + ".shared_kib", 16))),
            4, kv.getDouble(prefix + ".flops_per_element", 4.0),
            kv.getDouble(prefix + ".ints_per_element", 4.0),
            kv.getDouble(prefix + ".ctrl_per_element", 1.0),
            kv.getDouble(prefix + ".store_ratio", 0.5));
        kd.warpsToSaturate =
            kv.getDouble(prefix + ".warps_to_saturate", 8.0);
        kd.asyncComputePenalty =
            kv.getDouble(prefix + ".async_penalty", 1.0);

        // Optional declared dependency edges, validated by the
        // linter (UAL002/UAL003): depends = 0, 2
        std::string deps = kv.getString(prefix + ".depends");
        for (const std::string &dep : splitList(deps, ','))
            kd.dependsOn.push_back(
                parseIndex(dep, "kernel dependency"));

        std::string uses = kv.getString(prefix + ".buffers");
        if (uses.empty())
            fatal("job file: %s.buffers is required",
                  prefix.c_str());
        for (const std::string &spec : splitList(uses, ','))
            kd.buffers.push_back(
                parseBufferUse(spec, job.buffers.size()));
        job.kernels.push_back(std::move(kd));
    }
    if (job.kernels.empty())
        fatal("job file: no [kernel.0] section");
    return job;
}

Job
loadJobFile(const std::string &path)
{
    return jobFromConfig(KvConfig::fromFile(path));
}

std::uint64_t
jobFileBaseSeed(const std::string &contents, bool pinned)
{
    StableHasher h;
    h.bytes(contents.data(), contents.size());
    if (pinned)
        h.bytes("\x01", 1);
    return h.state();
}

} // namespace uvmasync
