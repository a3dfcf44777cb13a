#include "service.hh"

#include <algorithm>
#include <atomic>
#include <map>
#include <sstream>

#include "journal/journal.hh"
#include "store/fingerprint.hh"

namespace perfbench
{

using namespace uvmasync;

namespace
{

/** PointCache decorator timing lookups and inserts as spans. */
class TimedCache : public PointCache
{
  public:
    TimedCache(PointCache &inner, SpanLog &spans, std::uint64_t request,
               std::uint64_t parent, SeamTotals &totals)
        : inner_(inner), spans_(spans), request_(request),
          parent_(parent), totals_(totals)
    {
    }

    bool
    lookup(std::size_t index, PointOutcome &out) override
    {
        Clock::time_point t0 = Clock::now();
        bool hit = inner_.lookup(index, out);
        Clock::time_point t1 = Clock::now();
        spans_.add(request_, parent_, "store.lookup", t0, t1);
        totals_.lookupMs += msBetween(t0, t1);
        ++totals_.lookups;
        totals_.hits += hit;
        return hit;
    }

    void
    store(std::size_t index, const PointOutcome &out) override
    {
        Clock::time_point t0 = Clock::now();
        inner_.store(index, out);
        Clock::time_point t1 = Clock::now();
        spans_.add(request_, parent_, "store.insert", t0, t1);
        totals_.insertMs += msBetween(t0, t1);
        ++totals_.inserts;
    }

  private:
    PointCache &inner_;
    SpanLog &spans_;
    std::uint64_t request_;
    std::uint64_t parent_;
    SeamTotals &totals_;
};

/** PointJournal decorator timing commits as spans. */
class TimedJournal : public PointJournal
{
  public:
    TimedJournal(PointJournal &inner, SpanLog &spans, std::uint64_t request,
                 std::uint64_t parent, SeamTotals &totals)
        : inner_(inner), spans_(spans), request_(request),
          parent_(parent), totals_(totals)
    {
    }

    bool
    restore(std::size_t index, PointOutcome &out) override
    {
        return inner_.restore(index, out);
    }

    bool
    commit(std::size_t index, PointOutcome &out) override
    {
        Clock::time_point t0 = Clock::now();
        bool ok = inner_.commit(index, out);
        Clock::time_point t1 = Clock::now();
        spans_.add(request_, parent_, "journal.commit", t0, t1);
        totals_.commitMs += msBetween(t0, t1);
        ++totals_.commits;
        return ok;
    }

  private:
    PointJournal &inner_;
    SpanLog &spans_;
    std::uint64_t request_;
    std::uint64_t parent_;
    SeamTotals &totals_;
};

} // namespace

std::unique_ptr<ResultStore>
openStore(const BenchOptions &opt, const std::string &dir)
{
    std::string error;
    makeDirs(dir, error);
    return ResultStore::open(dir, modelSemanticsFingerprint(opt.system));
}

BatchResult
runWithSeams(const BenchOptions &opt, RunReport &report,
             ParallelRunner &runner, ResultStore &store,
             const std::vector<ExperimentPoint> &points,
             const std::string &journalPath, std::uint64_t request,
             SeamTotals &totals)
{
    std::uint64_t root = report.spans.reserve();
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<RunJournal> journal =
        RunJournal::create(journalPath, points);
    StorePointCache cache(store, points);
    TimedCache timedCache(cache, report.spans, request, root, totals);
    TimedJournal timedJournal(*journal, report.spans, request, root, totals);
    RunPolicy policy;
    policy.cache = &timedCache;
    policy.journal = &timedJournal;
    BatchResult batch = runner.runPoints(points, policy);
    report.spans.addReserved(root, request, 0, "core.batch", t0,
                             Clock::now());
    for (std::size_t p = 0; p < points.size(); ++p)
        checkOutcome(opt, report, points[p], batch.points[p]);
    if (batch.metrics.journalErrors) {
        // A commit the journal refused is an output the run lost.
        totals.journalErrors += batch.metrics.journalErrors;
        report.failed += batch.metrics.journalErrors;
        report.notes.push_back("JOURNAL ERRORS " +
                               std::to_string(batch.metrics.journalErrors) +
                               " at " + journalPath);
    }
    return batch;
}

void
foldSeams(RunReport &report, const SeamTotals &totals,
          const ResultStore &store)
{
    auto per = [](double ms, std::size_t n) { return n ? ms / n : 0.0; };
    auto &L = report.layer;
    L["store.lookup_ms"] = {per(totals.lookupMs, totals.lookups), "ms"};
    L["store.insert_ms"] = {per(totals.insertMs, totals.inserts), "ms"};
    L["store.lookups"] = {static_cast<double>(totals.lookups), "count"};
    L["store.hits"] = {static_cast<double>(totals.hits), "count"};
    L["store.stored"] = {static_cast<double>(store.stats().stored),
                         "count"};
    L["journal.commit_ms"] = {per(totals.commitMs, totals.commits), "ms"};
    L["journal.commits"] = {static_cast<double>(totals.commits), "count"};
    L["journal.errors"] = {static_cast<double>(totals.journalErrors),
                           "count"};
}

void
Rig::shutdown()
{
    for (ServeClient &c : clients)
        c.close();
    if (server) {
        server->requestStop();
        serverThread.join();
        server.reset();
    }
    daemon.reset();
}

bool
startDaemon(const BenchOptions &opt, Rig &rig, const std::string &dir,
            std::string &error)
{
    if (!makeDirs(dir + "/state", error) || !makeDirs(dir + "/store", error))
        return false;
    rig.dir = dir;
    ServeOptions so;
    so.stateDir = dir + "/state";
    so.storeDir = dir + "/store";
    so.jobs = daemonJobs;
    so.system = opt.system;
    rig.daemon = std::make_unique<ServeDaemon>(so);
    rig.server =
        std::make_unique<ServeSocketServer>(*rig.daemon, dir + "/s.sock");
    ServeSocketServer *server = rig.server.get();
    rig.serverThread = std::thread([server] { server->run(); });
    for (ServeClient &c : rig.clients) {
        if (!c.connect(dir + "/s.sock", error))
            return false;
    }
    return true;
}

double
daemonPass(Rig &rig, const std::vector<BatchSpec> &specs,
           std::vector<Request> &requests, SpanLog *spans,
           std::uint64_t requestBase)
{
    requests.assign(specs.size(), Request{});
    std::atomic<std::size_t> next{0};
    auto client = [&](ServeClient &conn) {
        for (std::size_t i = next++; i < specs.size(); i = next++) {
            Request &r = requests[i];
            std::string handle;
            Clock::time_point t0 = Clock::now();
            bool ok = conn.submit(batchSpecPayload(specs[i]), handle,
                                  r.error);
            Clock::time_point t1 = Clock::now();
            if (ok)
                conn.stream(handle, 0, true, r.lines, r.state, r.error);
            Clock::time_point t2 = Clock::now();
            r.submitMs = msBetween(t0, t1);
            r.streamMs = msBetween(t1, t2);
            if (spans) {
                std::uint64_t root = spans->reserve();
                spans->add(requestBase + i, root, "serve.submit", t0, t1);
                spans->add(requestBase + i, root, "serve.stream", t1, t2);
                spans->addReserved(root, requestBase + i, 0, "request",
                                   t0, t2);
            }
        }
    };
    Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 1; c < clientCount; ++c)
        threads.emplace_back(client, std::ref(rig.clients[c]));
    client(rig.clients[0]);
    for (std::thread &t : threads)
        t.join();
    return msBetween(start, Clock::now());
}

void
checkPass(const BenchOptions &opt, RunReport &report,
          const std::vector<BatchSpec> &specs,
          const std::vector<Request> &requests)
{
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Request &r = requests[i];
        std::vector<ExperimentPoint> points = batchSpecPoints(specs[i]);
        // Every point gets exactly one verdict: the first record
        // naming it, or a failure when the stream never did.
        std::vector<bool> seen(points.size(), false);
        std::istringstream lines(r.lines);
        std::string line;
        while (std::getline(lines, line)) {
            std::size_t index = 0;
            std::uint64_t hash = 0;
            PointOutcome out;
            std::string err;
            if (!parseJournalRecord(line, index, hash, out, err) ||
                index >= points.size() || seen[index])
                continue;
            seen[index] = true;
            checkOutcome(opt, report, points[index], out);
        }
        for (std::size_t p = 0; p < points.size(); ++p) {
            if (seen[p])
                continue;
            PointOutcome missing;
            missing.error = "batch ended '" + r.state +
                            "' without this point: " + r.error;
            checkOutcome(opt, report, points[p], missing);
        }
    }
}

void
foldServe(RunReport &report, const ServeStats &before,
          const ServeStats &after, std::size_t requests)
{
    std::map<std::string, double> total = report.spans.totalMsByName();
    double n = std::max<double>(1.0, static_cast<double>(requests));
    double ioErrors = static_cast<double>(after.ioErrors - before.ioErrors);
    auto &L = report.layer;
    L["serve.submit_ms"] = {total["serve.submit"] / n, "ms"};
    L["serve.stream_ms"] = {total["serve.stream"] / n, "ms"};
    L["serve.points_cached"] = {
        static_cast<double>(after.pointsCached - before.pointsCached),
        "count"};
    L["serve.io_errors"] = {ioErrors, "count"};
    if (ioErrors > 0) {
        report.failed += after.ioErrors - before.ioErrors;
        report.notes.push_back("DAEMON I/O ERRORS " +
                               std::to_string(after.ioErrors -
                                              before.ioErrors));
    }
}

} // namespace perfbench
