/**
 * @file
 * `figures`: the paper's tables and figures, and our ablations, from
 * one binary.
 *
 *   figures [--jobs N] [NAME...]
 *
 * With no NAME it prints every figure in paper order; otherwise only
 * the named ones, in the order given. Each figure's report follows a
 * `===== NAME =====` line. --jobs N (default: UVMASYNC_JOBS, then
 * the hardware concurrency) sets the parallel engine's worker count.
 * stdout is byte-identical at any job count; the engine's host-side
 * metrics go to stderr. Any other argument exits 2 before anything
 * simulates.
 */

#include "figures.hh"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/parse_number.hh"
#include "journal/journal.hh"

namespace uvmasync
{
namespace bench
{

void
ResultCache::prefetch(const std::vector<ExperimentPoint> &points)
{
    std::vector<ExperimentPoint> missing;
    std::vector<std::uint64_t> keys;
    for (const ExperimentPoint &point : points) {
        std::uint64_t key = pointConfigHash(point);
        if (!cache_.count(key)) {
            missing.push_back(point);
            keys.push_back(key);
        }
    }
    if (missing.empty())
        return;
    BatchResult batch =
        ParallelRunner(SystemConfig::a100Epyc()).runPoints(missing);
    std::vector<ExperimentResult> results = batch.results();
    for (std::size_t i = 0; i < keys.size(); ++i)
        cache_.emplace(keys[i], std::move(results[i]));

    engine_.jobs = std::max(engine_.jobs, batch.metrics.jobs);
    engine_.points += batch.metrics.points;
    engine_.wallMs += batch.metrics.wallMs;
    engine_.busyMs += batch.metrics.busyMs;
    engine_.pricingMs += batch.metrics.pricingMs;
    engine_.steals += batch.metrics.steals;
    engine_.pointsPerSec =
        engine_.wallMs > 0.0
            ? static_cast<double>(engine_.points) / (engine_.wallMs / 1e3)
            : 0.0;
}

void
ResultCache::prefetchGrid(const std::vector<std::string> &workloads,
                          const std::vector<ExperimentOptions> &opts)
{
    std::vector<ExperimentPoint> points;
    for (const ExperimentOptions &o : opts) {
        for (const std::string &workload : workloads) {
            for (TransferMode mode : allTransferModes)
                points.push_back(ExperimentPoint{workload, mode, o});
        }
    }
    prefetch(points);
}

const ExperimentResult &
ResultCache::get(const ExperimentPoint &point)
{
    prefetch({point});
    return cache_.at(pointConfigHash(point));
}

ModeSet
ResultCache::modes(const std::string &workload,
                   const ExperimentOptions &opts)
{
    prefetchGrid({workload}, {opts});
    ModeSet set;
    for (TransferMode mode : allTransferModes)
        set.push_back(get(ExperimentPoint{workload, mode, opts}));
    return set;
}

std::vector<SweepPoint>
ResultCache::sweep(const SweepGrid &grid)
{
    prefetch(grid.points);
    std::vector<SweepPoint> out;
    auto point = grid.points.begin();
    for (std::uint64_t value : grid.values) {
        SweepPoint sp{value, {}};
        for (std::size_t m = 0; m < allTransferModes.size(); ++m)
            sp.modes.push_back(get(*point++));
        out.push_back(std::move(sp));
    }
    return out;
}

} // namespace bench
} // namespace uvmasync

namespace
{

using namespace uvmasync;
using namespace uvmasync::bench;

/** One entry of the figure table. */
struct Figure
{
    const char *name;
    void (*print)(ResultCache &);
};

/** Every figure, in paper order; the names are the old bench_* suffixes. */
const std::vector<Figure> kFigures = {
    {"table1_config", table1Config},
    {"table2_programs", table2Programs},
    {"table3_sizes", table3Sizes},
    {"fig4_distribution", fig4Distribution},
    {"fig5_stability", fig5Stability},
    {"fig6_mega_breakdown", fig6MegaBreakdown},
    {"fig7_micro", fig7Micro},
    {"fig8_apps", fig8Apps},
    {"fig9_instmix", fig9InstMix},
    {"fig10_cachemiss", fig10CacheMiss},
    {"fig11_blocks", fig11Blocks},
    {"fig12_threads", fig12Threads},
    {"fig13_sharedmem", fig13SharedMem},
    {"fig14_interjob", fig14InterJob},
    {"ablation_faultbatch", ablationFaultBatch},
    {"ablation_prefetcher", ablationPrefetcher},
    {"ablation_pcie", ablationPcie},
    {"ablation_pinned", ablationPinned},
    {"ablation_asyncapi", ablationAsyncApi},
};

/** Refuse @p arg: name it, list the figures, exit 2. */
[[noreturn]] void
refuse(const std::string &arg, const char *why)
{
    std::fprintf(stderr,
                 "figures: %s '%s'\n"
                 "usage: figures [--jobs N] [NAME...]; NAME is one of:",
                 why, arg.c_str());
    for (const Figure &figure : kFigures)
        std::fprintf(stderr, " %s", figure.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<const Figure *> selected;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--jobs" || arg.rfind("--jobs=", 0) == 0) {
            std::string value = arg == "--jobs"
                                    ? (i + 1 < argc ? argv[++i] : "")
                                    : arg.substr(7);
            std::uint64_t jobs = 0;
            if (!parseUnsigned(value, jobs,
                               std::numeric_limits<unsigned>::max()) ||
                jobs == 0)
                refuse(value, "--jobs needs a positive integer, got");
            setGlobalJobs(static_cast<unsigned>(jobs));
            continue;
        }
        auto it = std::find_if(kFigures.begin(), kFigures.end(),
                               [&](const Figure &figure) {
                                   return arg == figure.name;
                               });
        if (it == kFigures.end())
            refuse(arg, "unknown argument");
        selected.push_back(&*it);
    }
    if (selected.empty()) {
        for (const Figure &figure : kFigures)
            selected.push_back(&figure);
    }

    registerAllWorkloads();
    ResultCache cache;
    for (const Figure *figure : selected) {
        std::cout << "===== " << figure->name << " =====\n";
        figure->print(cache);
    }
    std::cout.flush();
    if (cache.engineMetrics().points > 0) {
        printTable(std::cerr, "Parallel engine (host-side metrics)",
                   parallelMetricsTable(cache.engineMetrics()));
    }
    return 0;
}
