#include "inject/inject_plan.hh"

#include <algorithm>

#include "common/logging.hh"

namespace uvmasync
{

namespace
{

/**
 * Full key schema, sorted. Durations are written in microseconds
 * (`*_us`) because that is the natural magnitude of the phenomena —
 * fault-batch windows, PCIe stutter, launch jitter — and stored as
 * Tick picoseconds internally.
 */
const char *const kKnownKeys[] = {
    "inject.fault.batch_overflow",
    "inject.fault.delay_rate",
    "inject.fault.delay_us",
    "inject.fault.overflow_penalty_us",
    "inject.host.slow_factor",
    "inject.host.slow_rate",
    "inject.host.window_end_us",
    "inject.host.window_start_us",
    "inject.kernel.jitter_rate",
    "inject.kernel.jitter_us",
    "inject.migrate.backpressure_rate",
    "inject.migrate.backpressure_us",
    "inject.migrate.storm_chunks",
    "inject.migrate.storm_rate",
    "inject.pcie.backoff_base_us",
    "inject.pcie.degrade_factor",
    "inject.pcie.fail_rate",
    "inject.pcie.max_retries",
    "inject.pcie.stutter_duty",
    "inject.pcie.stutter_period_us",
    "inject.pcie.window_end_us",
    "inject.pcie.window_start_us",
    "inject.seed",
};

} // namespace

const std::vector<std::string> &
knownInjectKeys()
{
    static const std::vector<std::string> keys(std::begin(kKnownKeys),
                                               std::end(kKnownKeys));
    return keys;
}

bool
InjectPlan::enabled() const
{
    // A seam counts as active only if it can actually change an
    // outcome; e.g. a batch delay with rate > 0 but zero duration
    // draws no RNG and shifts no tick, so it stays inert.
    bool pcieActive = pcie.degradeFactor > 1.0 || pcie.failRate > 0.0;
    bool faultActive = fault.batchOverflow > 0 ||
                       (fault.delayRate > 0.0 && fault.delayPs > 0);
    bool migrateActive =
        (migrate.backpressureRate > 0.0 && migrate.backpressurePs > 0) ||
        (migrate.stormRate > 0.0 && migrate.stormChunks > 0);
    bool hostActive = host.slowRate > 0.0 && host.slowFactor > 1.0;
    bool kernelActive = kernel.jitterRate > 0.0 && kernel.jitterPs > 0;
    return pcieActive || faultActive || migrateActive || hostActive ||
           kernelActive;
}

InjectPlan
InjectPlan::parse(const KvConfig &kv, std::vector<InjectIssue> &issues)
{
    InjectPlan plan;
    const std::vector<std::string> &known = knownInjectKeys();

    auto issue = [&](const std::string &key, std::string msg) {
        issues.push_back({key, std::move(msg)});
    };

    // Unknown keys first: a typo'd key would otherwise silently leave
    // its seam at the inert default — the worst possible failure mode
    // for a chaos plan, which exists to perturb.
    for (const std::string &key : kv.keys()) {
        if (std::binary_search(known.begin(), known.end(), key))
            continue;
        std::string hint = closestKey(key, known);
        if (hint.empty())
            issue(key, "unknown injection-plan key");
        else
            issue(key, "unknown injection-plan key; did you mean '" +
                           hint + "'?");
    }

    auto getRate = [&](const char *key, double def) {
        double v = kv.getDouble(key, def);
        if (!(v >= 0.0 && v <= 1.0)) {
            issue(key,
                  strfmt("probability %g is outside [0, 1]", v));
            return def;
        }
        return v;
    };

    auto getFactor = [&](const char *key, double def) {
        double v = kv.getDouble(key, def);
        if (!(v >= 1.0)) {
            issue(key,
                  strfmt("factor %g must be >= 1 (1 = no effect)", v));
            return def;
        }
        return v;
    };

    auto getUs = [&](const char *key, double defUs) -> Tick {
        double v = kv.getDouble(key, defUs);
        if (!(v >= 0.0)) {
            issue(key, strfmt("duration %g us must be >= 0", v));
            v = defUs;
        }
        return static_cast<Tick>(v * 1e6); // us -> ps
    };

    auto getCount = [&](const char *key,
                        std::int64_t def) -> std::uint32_t {
        std::int64_t v = kv.getInt(key, def);
        if (v < 0) {
            issue(key, strfmt("count %lld must be >= 0",
                              static_cast<long long>(v)));
            v = def;
        }
        return static_cast<std::uint32_t>(v);
    };

    auto getWindow = [&](const char *startKey, const char *endKey) {
        InjectWindow w;
        w.startPs = getUs(startKey, 0.0);
        w.endPs = getUs(endKey, 0.0);
        if (w.endPs != 0 && w.endPs <= w.startPs) {
            issue(endKey,
                  strfmt("window ends at %g us, not after its start "
                         "(%g us); use 0 for an open-ended window",
                         toMicroseconds(w.endPs),
                         toMicroseconds(w.startPs)));
            w.endPs = 0;
        }
        return w;
    };

    std::int64_t seed = kv.getInt("inject.seed", 0);
    if (seed < 0)
        issue("inject.seed", strfmt("seed %lld must be >= 0",
                                    static_cast<long long>(seed)));
    else
        plan.seed = static_cast<std::uint64_t>(seed);

    plan.pcie.degradeFactor =
        getFactor("inject.pcie.degrade_factor", 1.0);
    plan.pcie.window = getWindow("inject.pcie.window_start_us",
                                 "inject.pcie.window_end_us");
    plan.pcie.stutterPeriodPs =
        getUs("inject.pcie.stutter_period_us", 0.0);
    plan.pcie.stutterDuty = getRate("inject.pcie.stutter_duty", 0.5);
    plan.pcie.failRate = getRate("inject.pcie.fail_rate", 0.0);
    plan.pcie.maxRetries = getCount("inject.pcie.max_retries", 3);
    plan.pcie.backoffBasePs =
        getUs("inject.pcie.backoff_base_us", 50.0);

    plan.fault.batchOverflow =
        getCount("inject.fault.batch_overflow", 0);
    plan.fault.overflowPenaltyPs =
        getUs("inject.fault.overflow_penalty_us", 0.0);
    plan.fault.delayRate = getRate("inject.fault.delay_rate", 0.0);
    plan.fault.delayPs = getUs("inject.fault.delay_us", 0.0);

    plan.migrate.backpressureRate =
        getRate("inject.migrate.backpressure_rate", 0.0);
    plan.migrate.backpressurePs =
        getUs("inject.migrate.backpressure_us", 0.0);
    plan.migrate.stormRate = getRate("inject.migrate.storm_rate", 0.0);
    plan.migrate.stormChunks =
        getCount("inject.migrate.storm_chunks", 2);

    plan.host.slowRate = getRate("inject.host.slow_rate", 0.0);
    plan.host.slowFactor = getFactor("inject.host.slow_factor", 2.0);
    plan.host.window = getWindow("inject.host.window_start_us",
                                 "inject.host.window_end_us");

    plan.kernel.jitterRate = getRate("inject.kernel.jitter_rate", 0.0);
    plan.kernel.jitterPs = getUs("inject.kernel.jitter_us", 0.0);

    return plan;
}

InjectPlan
InjectPlan::fromKv(const KvConfig &kv)
{
    std::vector<InjectIssue> issues;
    InjectPlan plan = parse(kv, issues);
    if (!issues.empty()) {
        const InjectIssue &first = issues.front();
        int line = kv.lineOf(first.key);
        if (line > 0) {
            fatal("%s:%d: injection plan key '%s': %s",
                  kv.sourceName().c_str(), line, first.key.c_str(),
                  first.message.c_str());
        }
        fatal("%s: injection plan key '%s': %s",
              kv.sourceName().c_str(), first.key.c_str(),
              first.message.c_str());
    }
    return plan;
}

} // namespace uvmasync
