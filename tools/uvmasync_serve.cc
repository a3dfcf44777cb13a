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
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "runtime/config_loader.hh"
#include "serve/daemon.hh"
#include "serve/server.hh"

using namespace uvmasync;

namespace
{

/** Minimal --key value argument parser (same shape as the CLI's). */
class Args
{
  public:
    Args(int argc, char **argv, int start)
    {
        for (int i = start; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) == 0) {
                std::string key = arg.substr(2);
                if (i + 1 < argc && argv[i + 1][0] != '-')
                    values_[key] = argv[++i];
                else
                    values_[key] = "true";
            }
        }
    }

    std::string
    get(const std::string &key, const std::string &def = "") const
    {
        auto it = values_.find(key);
        return it == values_.end() ? def : it->second;
    }

    bool has(const std::string &key) const
    {
        return values_.count(key) > 0;
    }

  private:
    std::map<std::string, std::string> values_;
};

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
    std::string socketPath = args.get("socket");
    std::string stateDir = args.get("state");
    if (socketPath.empty() || stateDir.empty()) {
        usage();
        return 2;
    }

    ServeOptions opt;
    opt.stateDir = stateDir;
    opt.paused = args.has("paused");
    if (args.has("jobs"))
        opt.jobs = static_cast<unsigned>(
            std::strtoul(args.get("jobs").c_str(), nullptr, 10));
    if (args.has("config"))
        opt.system = loadSystemConfig(args.get("config"));
    if (!args.has("no-store")) {
        opt.storeDir = args.get("store");
        if (opt.storeDir.empty()) {
            const char *env = std::getenv("UVMASYNC_STORE");
            if (env && *env)
                opt.storeDir = env;
        }
    }
    if (args.has("store-max-bytes"))
        opt.storeMaxBytes = std::strtoull(
            args.get("store-max-bytes").c_str(), nullptr, 10);

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
