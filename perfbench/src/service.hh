/**
 * @file
 * The service-side layers, shared by both harnesses' traced runs and
 * the campaign workload: the store and journal seams behind timing
 * decorators, and a running daemon with its closed-loop clients.
 */

#ifndef PERFBENCH_SERVICE_HH
#define PERFBENCH_SERVICE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "serve/batch_spec.hh"
#include "serve/daemon.hh"
#include "serve/server.hh"
#include "store/result_store.hh"

namespace perfbench
{

constexpr unsigned daemonJobs = 2;
constexpr std::size_t clientCount = 2;

/** Store and journal seam totals, summed over decorated batches. */
struct SeamTotals
{
    double lookupMs = 0, insertMs = 0, commitMs = 0;
    std::size_t lookups = 0, hits = 0, inserts = 0, commits = 0;
    std::size_t journalErrors = 0;
};

/** Open (creating) the result store in @p dir, keyed to @p opt's model. */
std::unique_ptr<uvmasync::ResultStore> openStore(const BenchOptions &opt,
                                                 const std::string &dir);

/**
 * Run @p points through @p runner as `uvmasync run --store --journal`
 * does: a StorePointCache on @p store and a fresh RunJournal at
 * @p journalPath, each behind a timing decorator. The seam spans hang
 * under one `core.batch` span of request @p request. Checks every
 * outcome against the reference.
 */
uvmasync::BatchResult
runWithSeams(const BenchOptions &opt, RunReport &report,
             uvmasync::ParallelRunner &runner, uvmasync::ResultStore &store,
             const std::vector<uvmasync::ExperimentPoint> &points,
             const std::string &journalPath, std::uint64_t request,
             SeamTotals &totals);

/** store.* and journal.* metrics from the seam totals. */
void foldSeams(RunReport &report, const SeamTotals &totals,
               const uvmasync::ResultStore &store);

/** A running daemon, its socket server and the connected clients. */
struct Rig
{
    std::string dir;
    std::unique_ptr<uvmasync::ServeDaemon> daemon;
    std::unique_ptr<uvmasync::ServeSocketServer> server;
    std::thread serverThread;
    uvmasync::ServeClient clients[clientCount];

    Rig() = default;
    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    ~Rig() { shutdown(); }

    /** Disconnect, stop the server and daemon; closes the store. */
    void shutdown();
};

/**
 * Start a daemon (jobs = daemonJobs) on the state and store
 * directories under @p dir, its socket server, and connect the
 * clients. The store directory may already hold records.
 */
bool startDaemon(const BenchOptions &opt, Rig &rig, const std::string &dir,
                 std::string &error);

/** What one request returned. */
struct Request
{
    double submitMs = 0.0;
    double streamMs = 0.0;
    std::string lines;
    std::string state;
    std::string error;
};

/**
 * One closed-loop pass: both clients pull the next batch from a shared
 * cursor until every batch of @p specs has streamed. With @p spans
 * set, records serve.submit and serve.stream spans per request.
 * Returns the wall ms.
 */
double daemonPass(Rig &rig, const std::vector<uvmasync::BatchSpec> &specs,
                  std::vector<Request> &requests, SpanLog *spans,
                  std::uint64_t requestBase);

/** Check every streamed record of a pass against the reference. */
void checkPass(const BenchOptions &opt, RunReport &report,
               const std::vector<uvmasync::BatchSpec> &specs,
               const std::vector<Request> &requests);

/**
 * serve.* metrics from a traced pass's spans and the daemon's stats
 * before and after it; I/O errors count as failed outputs.
 */
void foldServe(RunReport &report, const uvmasync::ServeStats &before,
               const uvmasync::ServeStats &after, std::size_t requests);

} // namespace perfbench

#endif // PERFBENCH_SERVICE_HH
