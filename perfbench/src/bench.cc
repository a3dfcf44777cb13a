#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "stats.hh"

namespace perfbench
{

using namespace uvmasync;

std::string
keyOf(const ExperimentPoint &point)
{
    return pointKey(point.opts.baseSeed, point.workload, point.opts.size,
                    point.mode);
}

void
checkOutcome(const BenchOptions &opt, RunReport &report,
             const ExperimentPoint &point, const PointOutcome &outcome)
{
    ++report.attempted;
    if (!outcome.ok) {
        ++report.failed;
        report.notes.push_back("FAILED " + keyOf(point) + ": " +
                               outcome.error);
        return;
    }
    Verdict v = opt.reference->checkResult(keyOf(point),
                                           resultDigest(outcome.result));
    if (v == Verdict::Match)
        return;
    ++report.failed;
    ++(v == Verdict::Missing ? report.missing : report.mismatched);
    report.notes.push_back(std::string("OUTPUT ") + verdictName(v) +
                           " " + keyOf(point));
}

namespace
{

/** Run fn(i) for every i < n on @p jobs threads (the caller's included). */
template <typename F>
void
forEachParallel(std::size_t n, unsigned jobs, F fn)
{
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next++; i < n; i = next++)
            fn(i);
    };
    std::vector<std::thread> threads;
    for (unsigned t = 1; t < jobs; ++t)
        threads.emplace_back(worker);
    worker();
    for (std::thread &t : threads)
        t.join();
}

} // namespace

std::vector<SteppedPoint>
stepAll(const BenchOptions &opt, const std::vector<ExperimentPoint> &points,
        unsigned jobs, SpanLog &spans, std::uint64_t requestBase)
{
    std::vector<SteppedPoint> out(points.size());
    forEachParallel(points.size(), jobs, [&](std::size_t i) {
        out[i] = stepPoint(opt.system, points[i], &spans, requestBase + i);
    });
    // A second pass, so replays never overlap the stepped points.
    forEachParallel(points.size(), jobs, [&](std::size_t i) {
        replayL1(opt.system, points[i], out[i], &spans, requestBase + i);
    });
    return out;
}

void
foldStepped(const BenchOptions &opt, RunReport &report,
            const std::vector<ExperimentPoint> &points,
            const std::vector<SteppedPoint> &stepped)
{
    double pointMs = 0, deviceMs = 0, replayMs = 0;
    double evictions = 0, evictedBytes = 0, moves = 0, faults = 0;
    double batches = 0, evictNs = 0, moveNs = 0, faultNs = 0;
    double bulkPrefetch = 0, queueWaitPs = 0;
    double h2d = 0, d2h = 0, launches = 0, replays = 0;
    std::size_t ok = 0, mismatched = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SteppedPoint &s = stepped[i];
        if (!s.ok) {
            report.notes.push_back("TRACED FAILED " + keyOf(points[i]) +
                                   ": " + s.error);
            ++mismatched;
            continue;
        }
        ++ok;
        std::string key = keyOf(points[i]);
        Verdict r = opt.reference->checkResult(key, resultDigest(s.result));
        Verdict m = opt.reference->checkModel(
            key, modelDigest(s.stats, s.metrics));
        if (r != Verdict::Match || m != Verdict::Match) {
            ++mismatched;
            report.notes.push_back(std::string("TRACED OUTPUT result ") +
                                   verdictName(r) + ", model " +
                                   verdictName(m) + " " + key);
        }
        pointMs += s.pointMs;
        deviceMs += s.deviceRunMs;
        replayMs += s.l1ReplayMs;
        double ev = statValue(s.stats, "hbm.evictions");
        // Chunks device memory took in or gave up: its insert and
        // evict operations.
        double mv = statValue(s.stats, "pt.migrations_to_device") + ev;
        double fl = statValue(s.stats, "uvm.faults.faults");
        double selfNs = std::max(0.0, s.deviceRunMs - s.l1ReplayMs) * 1e6;
        if (ev > 0)
            evictNs += selfNs;
        if (mv > 0)
            moveNs += selfNs;
        if (fl > 0)
            faultNs += selfNs;
        evictions += ev;
        evictedBytes += statValue(s.stats, "hbm.evicted_bytes");
        moves += mv;
        faults += fl;
        batches += statValue(s.stats, "uvm.faults.batches");
        bulkPrefetch += statValue(s.stats, "pcie.bytes_bulk_prefetch");
        queueWaitPs += static_cast<double>(s.metrics.pcieQueueWaitPs);
        h2d += static_cast<double>(s.result.counters.bytesH2d);
        d2h += static_cast<double>(s.result.counters.bytesD2h);
        launches += static_cast<double>(s.result.counters.launches);
        replays += static_cast<double>(s.l1Replays);
    }
    report.failed += mismatched;
    report.attempted += points.size();

    std::map<std::string, double> self = report.spans.selfMsByName();
    double n = std::max<double>(1.0, static_cast<double>(ok));
    auto per = [](double total, double count) {
        return count > 0 ? total / count : 0.0;
    };
    auto &L = report.layer;
    L["workloads.make_job_ms"] = {self["workloads.make_job"] / n, "ms"};
    L["analysis.lint_ms"] = {self["analysis.lint"] / n, "ms"};
    L["analysis.lint_share"] = {per(self["analysis.lint"], pointMs),
                                "ratio"};
    L["runtime.device_run_ms"] = {deviceMs / n, "ms"};
    L["runtime.noise_ms"] = {self["runtime.noise"] / n, "ms"};
    L["runtime.ns_per_chunk_move"] = {per(moveNs, moves), "ns"};
    L["runtime.ns_per_eviction"] = {per(evictNs, evictions), "ns"};
    L["runtime.ns_per_fault"] = {per(faultNs, faults), "ns"};
    L["gpu.l1_replay_ms"] = {replayMs / n, "ms"};
    L["gpu.l1_replays"] = {replays, "count"};
    L["gpu.launches"] = {launches, "count"};
    L["mem.chunk_moves"] = {moves, "count"};
    L["mem.evictions"] = {evictions, "count"};
    L["mem.evicted_bytes"] = {evictedBytes, "bytes"};
    L["xfer.faults"] = {faults, "count"};
    L["xfer.fault_batches"] = {batches, "count"};
    L["xfer.mean_batch_size"] = {per(faults, batches), "count"};
    L["xfer.bytes_bulk_prefetch"] = {bulkPrefetch, "bytes"};
    L["xfer.bytes_h2d"] = {h2d, "bytes"};
    L["xfer.bytes_d2h"] = {d2h, "bytes"};
    L["xfer.pcie_queue_wait_sim_ms"] = {queueWaitPs / 1e9, "sim_ms"};
    L["point.wall_ms"] = {pointMs / n, "ms"};
}

void
foldTracing(RunReport &report, const BatchResult &untraced,
            const std::vector<SteppedPoint> &traced)
{
    double tracedMs = 0.0;
    for (const SteppedPoint &s : traced)
        tracedMs += s.pointMs;
    double untracedMs = untraced.metrics.busyMs;
    report.layer["trace.slowdown"] = {
        untracedMs > 0 ? tracedMs / untracedMs : 0.0, "ratio"};
    report.layer["trace.overhead_share"] = {
        tracedMs > 0 ? 1.0 - untracedMs / tracedMs : 0.0, "ratio"};
}

void
foldCore(RunReport &report, const std::vector<BatchResult> &batches)
{
    std::vector<double> waits;
    double busy = 0, capacity = 0, steals = 0;
    for (const BatchResult &b : batches) {
        for (const PointOutcome &o : b.points) {
            if (!o.cached && !o.restored)
                waits.push_back(o.metrics.queueWaitMs);
        }
        busy += b.metrics.busyMs;
        capacity += b.metrics.wallMs * b.metrics.jobs;
        steals += static_cast<double>(b.metrics.steals);
    }
    auto &L = report.layer;
    L["core.queue_wait_ms"] = {median(waits), "ms"};
    L["core.busy_share"] = {capacity > 0 ? busy / capacity : 0.0,
                            "ratio"};
    L["core.steals"] = {steals, "count"};
}

double
peakRssMb()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool
makeDirs(const std::string &dir, std::string &error)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        error = "cannot create " + dir + ": " + ec.message();
        return false;
    }
    return true;
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

} // namespace perfbench
