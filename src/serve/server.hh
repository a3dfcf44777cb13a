/**
 * @file
 * AF_UNIX front end of the campaign daemon, plus the blocking client
 * the CLI and tests use.
 *
 * The server is a single poll() loop: one listening socket, one
 * self-pipe the daemon's wakeup hook writes to, and one FrameReader
 * per connection. Requests are handled synchronously against the
 * (internally thread-safe) ServeDaemon. Accepted sockets are
 * nonblocking; replies queue in a per-connection outbound buffer
 * that drains on POLLOUT, so a peer that stops reading can never
 * stall the loop — it accumulates buffered bytes up to a ceiling
 * and is then dropped, only ever hurting itself.
 *
 * Result streaming is subscription-based: a Stream request with
 * wait=1 parks the connection; every merge wakes the poll loop
 * through the self-pipe, which drains newly durable journal records
 * to every subscriber, and a terminal batch closes the stream with
 * StreamEnd. No wall-clock anywhere — poll() blocks with an infinite
 * timeout and only file descriptors wake it.
 */

#ifndef UVMASYNC_SERVE_SERVER_HH
#define UVMASYNC_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "serve/daemon.hh"
#include "serve/wire.hh"

namespace uvmasync
{

/** The daemon's socket front end. */
class ServeSocketServer
{
  public:
    /**
     * Bind + listen on @p socketPath (an existing stale socket file
     * is replaced). fatal() when the path is too long for sun_path
     * or not bindable — startup preflight, same discipline as the
     * state directory.
     */
    ServeSocketServer(ServeDaemon &daemon,
                      const std::string &socketPath);
    ~ServeSocketServer();

    ServeSocketServer(const ServeSocketServer &) = delete;
    ServeSocketServer &operator=(const ServeSocketServer &) = delete;

    /**
     * Serve until a Shutdown frame arrives or requestStop() is
     * called. Runs on the calling thread.
     */
    void run();

    /**
     * Ask run() to return; callable from any thread and from signal
     * handlers (an atomic store plus a self-pipe write).
     */
    void requestStop();

  private:
    struct Connection
    {
        int fd = -1;
        std::uint64_t client = 0;
        FrameReader reader;

        /** Active stream subscription (none when handle == 0). */
        BatchHandle streamHandle = 0;
        std::size_t streamNext = 0;
        bool streamWait = false;
        bool closed = false;

        /** Outbound bytes the nonblocking fd has not accepted yet
         *  (outStart is the consumed prefix; drained on POLLOUT). */
        std::string outBuffer;
        std::size_t outStart = 0;
    };

    void acceptConnection();
    void readConnection(Connection &conn);
    void handleFrame(Connection &conn, const Frame &frame);
    void serviceStream(Connection &conn);
    bool sendFrame(Connection &conn, FrameType type,
                   const std::string &payload);
    void flushConnection(Connection &conn);
    void closeConnection(Connection &conn);

    ServeDaemon &daemon_;
    std::string socketPath_;
    int listenFd_ = -1;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;
    std::atomic<bool> stopping_{false};
    std::uint64_t nextClient_ = 1; //!< 0 is the recovery client
    std::map<int, std::unique_ptr<Connection>> connections_;
};

/**
 * Blocking client of one daemon connection. One request in flight at
 * a time; stream() collects chunks until StreamEnd. Every method
 * returns false with @p error set instead of throwing — callers are
 * the CLI (exit-code world) and tests.
 */
class ServeClient
{
  public:
    ServeClient() = default;
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** Connect to a daemon socket. */
    bool connect(const std::string &socketPath, std::string &error);

    /** Submit a batch payload; @p handleHex gets the new handle. */
    bool submit(const std::string &payload, std::string &handleHex,
                std::string &error);

    /** Poll a batch; @p reply gets the raw KV status payload. */
    bool status(const std::string &handleHex, std::string &reply,
                std::string &error);

    /**
     * Stream a batch's journal records from @p fromRecord on into
     * @p lines (concatenated, submission order). With @p wait the
     * call returns only once the batch is terminal; without it, it
     * returns whatever exists right now. @p finalState gets the
     * batch state slug from StreamEnd.
     */
    bool stream(const std::string &handleHex, std::size_t fromRecord,
                bool wait, std::string &lines,
                std::string &finalState, std::string &error);

    /** Cancel a batch; @p state gets the resulting state slug. */
    bool cancel(const std::string &handleHex, std::string &state,
                std::string &error);

    /** Fetch daemon counters as raw KV text. */
    bool stats(std::string &reply, std::string &error);

    /** Ask the daemon to exit. */
    bool shutdown(std::string &error);

    void close();

  private:
    bool call(FrameType type, const std::string &payload,
              FrameType expected, Frame &reply, std::string &error);

    int fd_ = -1;
};

} // namespace uvmasync

#endif // UVMASYNC_SERVE_SERVER_HH
