/**
 * @file
 * perfbench: the repository benchmark binary.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--work-dir DIR] [--reference-dir DIR] [--results-dir DIR]
 *   perfbench --write-reference --workload NAME [--reference-dir DIR]
 *
 * In-process work uses min(4, nproc) workers.
 *
 * A run prints a human report on stderr, writes the full result
 * (with the machine fingerprint) and any spans under --results-dir,
 * and prints one JSON line on stdout: end-to-end metrics with
 * --trace 0, per-layer metrics with --trace 1.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "harness.hh"
#include "fingerprint.hh"
#include "point_sets.hh"
#include "stats.hh"
#include "workloads/registry.hh"

using namespace perfbench;
using namespace uvmasync;

namespace
{

struct Args
{
    BenchOptions opt;
    bool writeReference = false;
    std::string referenceDir = "perfbench/reference";
    std::string resultsDir = ".bench_build/perfbench/results";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n"
                 "                 [--reference-dir DIR] [--results-dir DIR]\n"
                 "       perfbench --write-reference --workload NAME "
                 "[--reference-dir DIR]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    a.opt.jobs = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    a.opt.workDir = ".bench_build/perfbench/work";
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--write-reference") {
            a.writeReference = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.opt.workload = value;
        } else if (flag == "--seed") {
            a.opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.opt.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            a.opt.trace = value == "1";
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
        } else if (flag == "--work-dir") {
            a.opt.workDir = value;
        } else if (flag == "--reference-dir") {
            a.referenceDir = value;
        } else if (flag == "--results-dir") {
            a.resultsDir = value;
        } else {
            usage("unknown flag " + flag);
        }
        if (end && *end != '\0')
            usage("bad number '" + value + "' for " + flag);
    }
    if (!knownWorkload(a.opt.workload))
        usage("unknown workload '" + a.opt.workload + "'");
    if (a.opt.seconds <= 0)
        usage("--seconds must be positive");
    return a;
}

std::string
referencePath(const Args &a)
{
    return a.referenceDir + "/" + a.opt.workload + ".ref";
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    return static_cast<bool>(out);
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    std::string text = buf;
    // Always a JSON float, even for whole counts.
    if (text.find_first_of(".eEn") == std::string::npos)
        text += ".0";
    return text;
}

/**
 * Regenerate the committed reference of one workload: every point at
 * every pool seed, stepped (for both digests) and also run through
 * ParallelRunner, whose result digest must agree.
 */
int
writeReference(Args &a)
{
    registerAllWorkloads();
    Reference ref;
    std::size_t disagreements = 0;
    for (std::size_t slot = 0; slot < seedPoolSize; ++slot) {
        std::vector<ExperimentPoint> points =
            expandSpecs(workloadSpecs(a.opt.workload, poolSeed(slot)));
        SpanLog spans;
        std::vector<SteppedPoint> stepped =
            stepAll(a.opt, points, a.opt.jobs, spans, 1);
        BatchResult batch =
            ParallelRunner(a.opt.system, a.opt.jobs).runPoints(points);
        for (std::size_t i = 0; i < points.size(); ++i) {
            const SteppedPoint &s = stepped[i];
            if (!s.ok || !batch.points[i].ok) {
                std::fprintf(stderr, "perfbench: %s failed: %s%s\n",
                             keyOf(points[i]).c_str(), s.error.c_str(),
                             batch.points[i].error.c_str());
                return 1;
            }
            std::string digest = resultDigest(s.result);
            if (digest != resultDigest(batch.points[i].result))
                ++disagreements;
            ref.set(keyOf(points[i]),
                    {digest, modelDigest(s.stats, s.metrics)});
        }
        std::fprintf(stderr, "perfbench: %s seed %llu: %zu points\n",
                     a.opt.workload.c_str(),
                     static_cast<unsigned long long>(poolSeed(slot)),
                     points.size());
    }
    if (disagreements) {
        std::fprintf(stderr,
                     "perfbench: %zu stepped results differ from "
                     "ParallelRunner's; reference not written\n",
                     disagreements);
        return 1;
    }
    std::string header =
        "# perfbench reference digests for " + a.opt.workload +
        " (modelSemanticsVersion " +
        std::to_string(currentFingerprint().modelSemanticsVersion) +
        ").\n# Regenerate only on purpose: python3 perfbench/run.py "
        "--write-reference\n"
        "# seed workload size mode result_digest model_digest\n";
    std::string error;
    if (!makeDirs(a.referenceDir, error) ||
        !writeFile(referencePath(a), ref.render(header))) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     referencePath(a).c_str());
        return 1;
    }
    std::fprintf(stderr, "perfbench: wrote %zu entries to %s\n", ref.size(),
                 referencePath(a).c_str());
    return 0;
}

/** Root ancestor name of every span, for the layer table. */
void
printLayerTable(const RunReport &report)
{
    std::vector<Span> spans = report.spans.spans();
    std::map<std::uint64_t, const Span *> byId;
    for (const Span &s : spans)
        byId[s.id] = &s;
    std::map<std::uint64_t, double> self = selfTimes(spans);
    // (root name, span name) -> self ms; root name -> wall ms, count.
    std::map<std::string, std::map<std::string, double>> groups;
    std::map<std::string, std::pair<double, std::size_t>> roots;
    for (const Span &s : spans) {
        const Span *root = &s;
        while (root->parent != 0 && byId.count(root->parent))
            root = byId[root->parent];
        groups[root->name][s.name] += self[s.id];
        if (root == &s) {
            roots[s.name].first += s.durationMs();
            ++roots[s.name].second;
        }
    }
    for (const auto &[rootName, names] : groups) {
        auto [wall, count] = roots[rootName];
        std::fprintf(stderr,
                     "  spans under '%s' (%zu requests, %.3f ms each):\n",
                     rootName.c_str(), count,
                     count ? wall / count : 0.0);
        std::fprintf(stderr, "    %-22s %14s %8s\n", "span (self time)",
                     "ms / request", "share");
        for (const auto &[name, ms] : names) {
            std::fprintf(stderr, "    %-22s %14.3f %7.1f%%\n",
                         name.c_str(), count ? ms / count : 0.0,
                         wall > 0 ? 100.0 * ms / wall : 0.0);
        }
    }
}

void
printCrossChecks(const Args &a, const RunReport &r)
{
    auto get = [&](const char *name) {
        auto it = r.layer.find(name);
        return it == r.layer.end() ? 0.0 : it->second.value;
    };
    double lint = get("analysis.lint_ms");
    double point = get("point.wall_ms");
    double sim = point - lint;
    std::fprintf(stderr,
                 "  lint gate: %.3f ms/point = %.2fx the rest of the "
                 "point (ROADMAP item 1 measured 4-12x)\n",
                 lint, sim > 0 ? lint / sim : 0.0);
    double lintL1 = lint + get("gpu.l1_replay_ms");
    std::fprintf(stderr,
                 "  lint + L1 replay: %.1f%% of point wall time\n",
                 point > 0 ? 100.0 * lintL1 / point : 0.0);
    bool oversub = a.opt.workload == "oversub_mega";
    auto verdict = [](bool ok) { return ok ? "as predicted" : "UNEXPECTED"; };
    std::fprintf(stderr, "  mem.evictions = %.0f: %s (> 0 only on "
                         "oversub_mega)\n",
                 get("mem.evictions"),
                 verdict((get("mem.evictions") > 0) == oversub));
    // The traced seams see every point once cold and once warm (the
    // in-process workloads) or half warm (campaign_mixed), and journal
    // every point, hit or miss.
    double lookups = get("store.lookups");
    std::fprintf(stderr,
                 "  store.hits = %.0f of %.0f lookups, journal.commits = "
                 "%.0f: %s (half the lookups hit; every point journaled)\n",
                 get("store.hits"), lookups, get("journal.commits"),
                 verdict(lookups > 0 && 2 * get("store.hits") == lookups &&
                         get("journal.commits") == lookups));
    std::fprintf(stderr,
                 "  tracing overhead: %.1f%% of untraced points/s "
                 "(slowdown %.3fx)\n",
                 100.0 * get("trace.overhead_share"), get("trace.slowdown"));
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    Fingerprint fp = currentFingerprint();
    if (std::string why = fp.refusal(); !why.empty()) {
        std::fprintf(stderr, "perfbench: refusing to time this build: %s\n",
                     why.c_str());
        return 3;
    }
    // Lint findings of the gated points are expected and printed once
    // per process; keep stderr for the report.
    setLogLevel(LogLevel::Silent);

    if (a.writeReference)
        return writeReference(a);

    std::string refText, error;
    Reference reference;
    if (!readFile(referencePath(a), refText) ||
        !reference.parse(refText, error)) {
        std::fprintf(stderr, "perfbench: no usable reference %s %s\n",
                     referencePath(a).c_str(), error.c_str());
        return 1;
    }
    a.opt.reference = &reference;
    a.opt.workDir += "/" + a.opt.workload + "-" +
                     std::to_string(static_cast<long long>(::getpid()));
    if (!makeDirs(a.opt.workDir, error) || !makeDirs(a.resultsDir, error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 1;
    }

    RunReport report;
    bool ok = isCampaign(a.opt.workload)
                  ? runCampaign(a.opt, report, error)
                  : runInProcess(a.opt, report, error);
    removeTree(a.opt.workDir);
    if (!ok) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 1;
    }

    // --- Report -----------------------------------------------------
    std::string tag = a.opt.workload + "-seed" + std::to_string(a.opt.seed);
    double pps = report.pointsDone / report.measuredS;
    double p50 = median(report.latenciesMs);
    bool p90ok = percentileReportable(report.latenciesMs, 90.0);
    double p90 = percentile(report.latenciesMs, 90.0);
    double setup = median(report.setupS);
    double rss = peakRssMb();
    double failRate = report.attempted
                          ? static_cast<double>(report.failed) /
                                report.attempted
                          : 1.0;
    std::fprintf(stderr, "perfbench %s: seed %llu (simulation seed %llu), "
                         "trace %d, jobs %u\nfingerprint %s\n",
                 a.opt.workload.c_str(),
                 static_cast<unsigned long long>(a.opt.seed),
                 static_cast<unsigned long long>(
                     poolSeed(seedSlot(a.opt.seed))),
                 a.opt.trace ? 1 : 0, a.opt.jobs, fp.toJson().c_str());
    std::fprintf(stderr, "  set-up: %zu runs, median %.4f s\n",
                 report.setupS.size(), setup);
    std::fprintf(stderr,
                 "  timed: %zu pass(es), %zu points in %.3f s = %.4f "
                 "points/s\n",
                 report.passes, report.pointsDone, report.measuredS, pps);
    std::fprintf(stderr, "  pass walls (ms):");
    for (double ms : report.passMs)
        std::fprintf(stderr, " %.1f", ms);
    std::fprintf(stderr, "\n");
    std::fprintf(stderr, "  latency: p50 %.3f ms over %zu requests; ",
                 p50, report.latenciesMs.size());
    if (p90ok)
        std::fprintf(stderr, "p90 %.3f ms (%zu samples beyond)\n", p90,
                     countAbove(report.latenciesMs, p90));
    else
        std::fprintf(stderr, "p90 not reported (fewer than 10 samples "
                             "beyond it)\n");
    std::fprintf(stderr, "  peak RSS %.1f MiB\n", rss);
    std::fprintf(stderr,
                 "  outputs: %zu attempted, %zu failed (%zu mismatched, "
                 "%zu missing from the reference), fail_rate %.4f\n",
                 report.attempted, report.failed, report.mismatched,
                 report.missing, failRate);
    for (const std::string &note : report.notes)
        std::fprintf(stderr, "  %s\n", note.c_str());

    std::string metrics;
    auto add = [&](const std::string &name, double value,
                   const std::string &unit) {
        metrics += (metrics.empty() ? "" : ", ") + std::string("\"") +
                   name + "\": {\"value\": " + num(value) +
                   ", \"unit\": \"" + unit + "\"}";
    };
    if (a.opt.trace) {
        printLayerTable(report);
        printCrossChecks(a, report);
        for (const auto &[name, m] : report.layer)
            add(name, m.value, m.unit);
        writeFile(a.resultsDir + "/" + tag + ".spans.jsonl",
                  report.spans.toJsonl());
    } else {
        add("points_per_s", pps, "1/s");
        add("latency_p50_ms", p50, "ms");
        add("setup_s", setup, "s");
        add("peak_rss_mb", rss, "MiB");
    }

    bool correct = report.failed == 0 && report.attempted > 0;
    std::string result = "{\"correct\": " +
                         std::string(correct ? "true" : "false") +
                         ", \"attempted\": " +
                         std::to_string(report.attempted) +
                         ", \"failed\": " + std::to_string(report.failed) +
                         ", \"metrics\": {" + metrics + "}}";

    std::string full = "{\"workload\": \"" + a.opt.workload +
                       "\", \"seed\": " + std::to_string(a.opt.seed) +
                       ", \"trace\": " + (a.opt.trace ? "1" : "0") +
                       ", \"fingerprint\": " + fp.toJson() +
                       ", \"fail_rate\": " + num(failRate) +
                       ", \"latency_samples\": " +
                       std::to_string(report.latenciesMs.size()) +
                       ", \"latency_p90_ms\": " +
                       (p90ok ? num(p90) : std::string("null")) +
                       ", \"result\": " + result + "}\n";
    writeFile(a.resultsDir + "/" + tag + "-trace" +
                  (a.opt.trace ? "1" : "0") + ".json",
              full);
    std::printf("%s\n", result.c_str());
    return 0;
}
