/**
 * @file
 * campaign_mixed: the service path. Two client connections submit
 * batches closed-loop (each sends its next batch only after the
 * previous one's stream ended) to an in-process ServeDaemon with
 * jobs = 2 and a shared ResultStore. Half the batches were pre-warmed
 * into the store during set-up, so they are store reads; the other
 * half simulate and write journal and store records.
 */

#include "harness.hh"

#include <cstdio>

#include "point_sets.hh"
#include "service.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace uvmasync;

namespace
{

/** One batch per request: its spec with the pass's seed applied. */
std::vector<BatchSpec>
passSpecs(const std::vector<BatchSpec> &base, std::uint64_t warmSeed,
          std::uint64_t coldSeed)
{
    std::vector<BatchSpec> specs = base;
    for (std::size_t i = 0; i < specs.size(); ++i)
        specs[i].seed = campaignWarm(i) ? warmSeed : coldSeed;
    return specs;
}

std::vector<ExperimentPoint>
pointsWhere(const std::vector<BatchSpec> &specs, bool warm)
{
    std::vector<BatchSpec> picked;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (campaignWarm(i) == warm)
            picked.push_back(specs[i]);
    }
    return expandSpecs(picked);
}

/**
 * Set-up: fresh state, pre-warm the warm half into the store (an
 * in-process batch over every core), start the daemon and its socket
 * server, connect the clients.
 */
bool
startRig(const BenchOptions &opt, RunReport &report, Rig &rig,
         const std::string &dir, const std::vector<BatchSpec> &specs,
         std::string &error)
{
    removeTree(dir);
    registerAllWorkloads();

    std::vector<ExperimentPoint> warm = pointsWhere(specs, true);
    {
        std::unique_ptr<ResultStore> store = openStore(opt, dir + "/store");
        StorePointCache cache(*store, warm);
        RunPolicy policy;
        policy.cache = &cache;
        BatchResult batch =
            ParallelRunner(opt.system, opt.jobs).runPoints(warm, policy);
        for (std::size_t i = 0; i < warm.size(); ++i)
            checkOutcome(opt, report, warm[i], batch.points[i]);
    }
    return startDaemon(opt, rig, dir, error);
}

/**
 * The daemon hides its store and journal; drive the same batches
 * in-process through the same public seams (RunJournal, a
 * StorePointCache on the rig's store) with timing decorators.
 */
void
inProcessSeams(const BenchOptions &opt, RunReport &report,
               const std::string &dir, const std::vector<BatchSpec> &specs,
               std::uint64_t requestBase)
{
    std::string error;
    makeDirs(dir + "/seams", error);
    std::unique_ptr<ResultStore> store = openStore(opt, dir + "/store");
    SeamTotals totals;
    std::vector<BatchResult> batches;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ParallelRunner runner(opt.system, daemonJobs);
        batches.push_back(runWithSeams(
            opt, report, runner, *store, batchSpecPoints(specs[i]),
            dir + "/seams/" + std::to_string(i) + ".jsonl", requestBase + i,
            totals));
    }
    foldCore(report, batches);
    foldSeams(report, totals, *store);
}

} // namespace

bool
runCampaign(const BenchOptions &opt, RunReport &report, std::string &error)
{
    std::size_t slot = seedSlot(opt.seed);
    std::uint64_t warmSeed = poolSeed(slot);
    auto coldSeed = [&](std::size_t pass) {
        return poolSeed(slot + 1 + pass);
    };
    std::vector<BatchSpec> base = workloadSpecs(opt.workload, warmSeed);

    // Set-up, repeated on fresh state; the last rig is measured.
    std::unique_ptr<Rig> rig;
    const int setups = opt.trace ? 1 : 5;
    for (int rep = 0; rep < setups; ++rep) {
        rig = std::make_unique<Rig>();
        Clock::time_point start = Clock::now();
        if (!startRig(opt, report, *rig,
                      opt.workDir + "/rig" + std::to_string(rep), base,
                      error))
            return false;
        report.setupS.push_back(msBetween(start, Clock::now()) / 1e3);
        if (rep + 1 < setups) {
            rig->shutdown();
            removeTree(rig->dir);
        }
    }

    // Timed passes; each pass's cold half uses a fresh pool seed, so
    // it misses the store however many passes ran before it.
    ServeStats before = rig->daemon->stats();
    const std::size_t maxPasses = opt.trace ? 1 : seedPoolSize - 1;
    do {
        std::vector<BatchSpec> specs =
            passSpecs(base, warmSeed, coldSeed(report.passes));
        std::vector<Request> requests;
        double wallMs = daemonPass(*rig, specs, requests,
                                   opt.trace ? &report.spans : nullptr, 1);
        report.passMs.push_back(wallMs);
        report.measuredS += wallMs / 1e3;
        report.pointsDone += expandSpecs(specs).size();
        ++report.passes;
        for (const Request &r : requests)
            report.latenciesMs.push_back(r.submitMs + r.streamMs);
        checkPass(opt, report, specs, requests);
    } while (report.measuredS < opt.seconds &&
             report.passes < maxPasses);
    ServeStats after = rig->daemon->stats();

    double lookups = after.storeLookups - before.storeLookups;
    double hits = after.storeHits - before.storeHits;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "closed loop: %zu clients, daemon jobs %u; warm/cold "
                  "split achieved: %.0f store hits / %.0f lookups = %.3f",
                  clientCount, daemonJobs, hits, lookups,
                  lookups > 0 ? hits / lookups : 0.0);
    report.notes.push_back(buf);
    if (!opt.trace)
        return true;

    foldServe(report, before, after, report.latenciesMs.size());
    std::string dir = rig->dir;
    rig->shutdown();

    // Store and journal seams, in-process, on the next pass's seeds.
    const std::uint64_t seamBase = 1'000'000;
    inProcessSeams(opt, report, dir, passSpecs(base, warmSeed, coldSeed(1)),
                   seamBase);

    // The points that simulate (a cold half, no store): untraced via
    // the runner, then stepped with spans at the same worker count.
    std::vector<ExperimentPoint> cold =
        pointsWhere(passSpecs(base, warmSeed, coldSeed(2)), false);
    BatchResult batch =
        ParallelRunner(opt.system, daemonJobs).runPoints(cold);
    for (std::size_t i = 0; i < cold.size(); ++i)
        checkOutcome(opt, report, cold[i], batch.points[i]);
    std::vector<SteppedPoint> stepped =
        stepAll(opt, cold, daemonJobs, report.spans, 2 * seamBase);
    foldStepped(opt, report, cold, stepped);
    foldTracing(report, batch, stepped);
    return true;
}

} // namespace perfbench
