/**
 * @file
 * The campaign daemon executable: simulation as a service over a
 * local socket.
 *
 *   uvmasync-serve --socket PATH --state DIR [--jobs N]
 *                  [--config FILE] [--store DIR | --no-store]
 *                  [--store-max-bytes N] [--paused]
 *
 * Clients (`uvmasync client ...` or anything speaking the
 * length-prefixed frame protocol of src/serve/wire.hh) submit
 * experiment batches, poll status, stream submission-order hexfloat
 * JSONL results, and cancel. State lives under --state: every batch
 * keeps its payload and its fsync'd run journal there, so killing
 * the daemon at any point and restarting it over the same state
 * directory resumes every in-flight campaign — and the result
 * stream a client eventually collects is byte-identical to an
 * uninterrupted run (and to the record payloads of `uvmasync run
 * --journal` of the same batch).
 *
 * --store attaches the shared cross-client result store (default:
 * the UVMASYNC_STORE environment variable, same as the batch CLI),
 * so one tenant's finished points are every other tenant's cache
 * hits. Both the state directory and the socket path are preflighted
 * before the first client is accepted: a misconfigured daemon dies
 * at startup with an actionable message, never on the first submit.
 *
 * SIGINT/SIGTERM stop the daemon cleanly: the in-flight batch drains
 * (its journal stays a durable prefix either way), queued batches
 * stay pending on disk for the next start.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "runtime/config_loader.hh"
#include "serve/daemon.hh"
#include "serve/server.hh"

#include "args.hh"

using namespace uvmasync;

namespace
{

ServeSocketServer *gServer = nullptr;

void
handleSignal(int)
{
    if (gServer)
        gServer->requestStop();
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: uvmasync-serve --socket PATH --state DIR [--jobs N]\n"
        "                      [--config FILE] [--store DIR | "
        "--no-store]\n"
        "                      [--store-max-bytes N] [--paused]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Args args(argc, argv, 1);
    if (!args.onlyFlags("uvmasync-serve",
                        {{"socket", "state", "jobs", "config", "store",
                          "no-store", "store-max-bytes", "paused"}}))
        return 2;
    std::string socketPath = args.get("socket");
    std::string stateDir = args.get("state");
    if (socketPath.empty() || stateDir.empty()) {
        usage();
        return 2;
    }

    ServeOptions opt;
    opt.stateDir = stateDir;
    opt.paused = args.has("paused");
    opt.jobs = args.getUnsigned<unsigned>("jobs", 0);
    if (args.has("config"))
        opt.system = loadSystemConfig(args.get("config"));
    if (!args.has("no-store"))
        opt.storeDir = storeDirFlag(args);
    opt.storeMaxBytes = args.getUnsigned("store-max-bytes", 0);

    // Construction preflights the state directory, opens the store,
    // and recovers persisted batches; the server constructor
    // preflights the socket. Both fatal() with actionable messages
    // on misconfiguration — before any client is accepted.
    ServeDaemon daemon(opt);
    ServeSocketServer server(daemon, socketPath);
    gServer = &server;
    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);
    std::signal(SIGPIPE, SIG_IGN);

    // Status goes to stderr, unbuffered: stdout stays clean for
    // data, and a kill -9 cannot eat the banner the way it eats a
    // block-buffered stdout pipe — check.sh greps this line from
    // the daemon's stderr log after a crash-restart.
    ServeStats stats = daemon.stats();
    std::fprintf(stderr,
                 "info: serve: listening on %s (state %s, "
                 "%llu batch(es) recovered)\n",
                 socketPath.c_str(), stateDir.c_str(),
                 static_cast<unsigned long long>(
                     stats.batchesRecovered));

    server.run();

    gServer = nullptr;
    daemon.stop();
    std::fprintf(stderr, "info: serve: stopped\n");
    return 0;
}
