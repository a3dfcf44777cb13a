#include "serve/server.hh"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <vector>

#include "common/kv_config.hh"
#include "common/logging.hh"
#include "journal/json.hh"

namespace uvmasync
{

namespace
{

/**
 * Ceiling on bytes queued toward one connection (well above the
 * frame ceiling so a maximal stream chunk still fits behind pending
 * replies). A peer that stops reading hits it and is dropped.
 */
constexpr std::size_t maxOutboundBuffered = 64u << 20;

/** Render one KV reply line. */
void
kvLine(std::string &out, const char *key, const std::string &value)
{
    out += key;
    out += " = ";
    out += value;
    out += "\n";
}

void
kvLine(std::string &out, const char *key, std::uint64_t value)
{
    kvLine(out, key, std::to_string(value));
}

std::string
statusPayload(BatchHandle handle, const BatchStatus &status)
{
    std::string out;
    kvLine(out, "batch", hexU64(handle));
    kvLine(out, "state", batchStateName(status.state));
    kvLine(out, "points", status.points);
    kvLine(out, "merged", status.merged);
    kvLine(out, "ok", status.ok);
    kvLine(out, "failed", status.failed);
    kvLine(out, "restored", status.restored);
    kvLine(out, "cached", status.cached);
    for (std::size_t i = 0; i < status.pointStatus.size(); ++i) {
        kvLine(out, ("point." + std::to_string(i)).c_str(),
               status.pointStatus[i]);
    }
    return out;
}

std::string
statsPayload(const ServeStats &stats)
{
    std::string out;
    kvLine(out, "batches.submitted", stats.batchesSubmitted);
    kvLine(out, "batches.recovered", stats.batchesRecovered);
    kvLine(out, "batches.completed", stats.batchesCompleted);
    kvLine(out, "batches.degraded", stats.batchesDegraded);
    kvLine(out, "batches.cancelled", stats.batchesCancelled);
    kvLine(out, "points.merged", stats.pointsMerged);
    kvLine(out, "points.restored", stats.pointsRestored);
    kvLine(out, "points.cached", stats.pointsCached);
    kvLine(out, "store.lookups", stats.storeLookups);
    kvLine(out, "store.hits", stats.storeHits);
    kvLine(out, "store.stored", stats.storeStored);
    kvLine(out, "io.errors", stats.ioErrors);
    return out;
}

/**
 * Parse a request payload: its `batch` handle and, for a Stream
 * request (@p fromRecord and @p wait given), `from` and `wait`. The
 * KV parser and its typed getters fatal() on malformed input; a
 * garbled request must only fail that request, never the daemon —
 * same guard as parseBatchSpec.
 */
bool
parseRequest(const std::string &payload, BatchHandle &handle,
             std::string &error, std::size_t *fromRecord = nullptr,
             bool *wait = nullptr)
{
    try {
        FatalThrowScope fatalGuard;
        KvConfig kv = KvConfig::fromString(payload, "<request>");
        std::string text = kv.getString("batch");
        if (text.empty())
            error = "request is missing the batch handle";
        else if (!parseHexU64(text, handle))
            error = "malformed batch handle '" + text + "'";
        else if (fromRecord && kv.getInt("from", 0) < 0)
            error = "stream 'from' must be >= 0";
        else if (fromRecord) {
            *fromRecord = static_cast<std::size_t>(kv.getInt("from", 0));
            *wait = kv.getBool("wait", true);
        }
    } catch (const std::exception &e) {
        error = e.what();
    }
    return error.empty();
}

} // namespace

ServeSocketServer::ServeSocketServer(ServeDaemon &daemon,
                                     const std::string &socketPath)
    : daemon_(daemon), socketPath_(socketPath)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath_.size() >= sizeof(addr.sun_path))
        fatal("serve: socket path '%s' exceeds the %zu-byte AF_UNIX "
              "limit",
              socketPath_.c_str(), sizeof(addr.sun_path) - 1);
    std::memcpy(addr.sun_path, socketPath_.c_str(),
                socketPath_.size() + 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        fatal("serve: cannot create socket: %s",
              std::strerror(errno));
    // A stale socket file from a killed daemon would fail bind()
    // with EADDRINUSE; replace it — restart-over-the-same-state-dir
    // is exactly the recovery path.
    ::unlink(socketPath_.c_str());
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("serve: cannot bind '%s': %s", socketPath_.c_str(),
              std::strerror(errno));
    if (::listen(listenFd_, 64) != 0)
        fatal("serve: cannot listen on '%s': %s",
              socketPath_.c_str(), std::strerror(errno));

    int pipeFds[2];
    if (::pipe2(pipeFds, O_NONBLOCK | O_CLOEXEC) != 0)
        fatal("serve: cannot create wakeup pipe: %s",
              std::strerror(errno));
    wakeRead_ = pipeFds[0];
    wakeWrite_ = pipeFds[1];

    int wakeFd = wakeWrite_;
    daemon_.setWakeup([wakeFd] {
        // Nonblocking: a full pipe already guarantees a pending
        // wakeup, so a dropped byte is harmless.
        ssize_t n = ::write(wakeFd, "w", 1);
        (void)n;
    });
}

ServeSocketServer::~ServeSocketServer()
{
    daemon_.setWakeup(nullptr);
    for (auto &entry : connections_) {
        if (entry.second->fd >= 0)
            ::close(entry.second->fd);
    }
    connections_.clear();
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (wakeRead_ >= 0)
        ::close(wakeRead_);
    if (wakeWrite_ >= 0)
        ::close(wakeWrite_);
    ::unlink(socketPath_.c_str());
}

void
ServeSocketServer::requestStop()
{
    stopping_.store(true, std::memory_order_release);
    ssize_t n = ::write(wakeWrite_, "q", 1);
    (void)n;
}

void
ServeSocketServer::run()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        std::vector<pollfd> fds;
        fds.push_back(pollfd{listenFd_, POLLIN, 0});
        fds.push_back(pollfd{wakeRead_, POLLIN, 0});
        std::vector<Connection *> polled;
        for (auto &entry : connections_) {
            short events = POLLIN;
            if (entry.second->outStart <
                entry.second->outBuffer.size())
                events |= POLLOUT;
            fds.push_back(pollfd{entry.second->fd, events, 0});
            polled.push_back(entry.second.get());
        }

        // Infinite timeout: only descriptors wake the loop (client
        // bytes, new connections, merge wakeups) — the server never
        // needs a clock.
        int ready = ::poll(fds.data(), fds.size(), -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            fatal("serve: poll failed: %s", std::strerror(errno));
        }
        if (stopping_.load(std::memory_order_acquire))
            break;

        if (fds[1].revents & POLLIN) {
            char drain[256];
            while (::read(wakeRead_, drain, sizeof(drain)) > 0) {
            }
        }

        for (std::size_t i = 0; i < polled.size(); ++i) {
            Connection &conn = *polled[i];
            if (!conn.closed && (fds[2 + i].revents & POLLOUT))
                flushConnection(conn);
            if (!conn.closed &&
                (fds[2 + i].revents &
                 (POLLIN | POLLHUP | POLLERR)))
                readConnection(conn);
        }

        // A merge (or state change) may have extended any stream:
        // service every live subscription after every wake. Chunks
        // only carry bytes the journal already fsync'd, so an
        // over-eager pass is just a no-op.
        for (auto &entry : connections_) {
            if (!entry.second->closed)
                serviceStream(*entry.second);
        }

        // Erase closed connections BEFORE accepting: accept() can
        // hand back an fd a connection just released, and the map is
        // keyed by fd — a stale entry under the same key would make
        // the insert fail and orphan the new connection (its client
        // would hang forever waiting for replies).
        for (auto it = connections_.begin();
             it != connections_.end();) {
            if (it->second->closed)
                it = connections_.erase(it);
            else
                ++it;
        }

        if (fds[0].revents & POLLIN)
            acceptConnection();
    }
}

void
ServeSocketServer::acceptConnection()
{
    int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0)
        return;
    // Nonblocking: the poll loop must never block in send() on a
    // peer that stopped reading — outbound bytes queue in the
    // connection's buffer instead and drain on POLLOUT.
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 ||
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        ::close(fd);
        return;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->client = nextClient_++;
    // insert_or_assign, not emplace: the kernel reuses fds, and a
    // silently failed insert would orphan this connection.
    connections_.insert_or_assign(fd, std::move(conn));
}

void
ServeSocketServer::readConnection(Connection &conn)
{
    char buffer[4096];
    ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
        closeConnection(conn);
        return;
    }
    if (n < 0)
        return;
    conn.reader.feed(buffer, static_cast<std::size_t>(n));
    Frame frame;
    std::string error;
    while (!conn.closed && conn.reader.next(frame, error))
        handleFrame(conn, frame);
    if (!conn.closed && conn.reader.corrupt()) {
        sendFrame(conn, FrameType::Error, error);
        closeConnection(conn);
    }
}

void
ServeSocketServer::handleFrame(Connection &conn, const Frame &frame)
{
    std::string error;
    switch (frame.type) {
      case FrameType::Submit: {
        BatchHandle handle =
            daemon_.submit(conn.client, frame.payload, error);
        if (handle == 0) {
            sendFrame(conn, FrameType::Error, error);
            return;
        }
        std::string reply;
        kvLine(reply, "batch", hexU64(handle));
        sendFrame(conn, FrameType::SubmitOk, reply);
        return;
      }
      case FrameType::Status: {
        BatchHandle handle = 0;
        BatchStatus status;
        if (!parseRequest(frame.payload, handle, error) ||
            !daemon_.status(handle, status, error)) {
            sendFrame(conn, FrameType::Error, error);
            return;
        }
        sendFrame(conn, FrameType::StatusOk,
                  statusPayload(handle, status));
        return;
      }
      case FrameType::Stream: {
        BatchHandle handle = 0;
        std::size_t fromRecord = 0;
        bool wait = true;
        if (!parseRequest(frame.payload, handle, error, &fromRecord,
                          &wait)) {
            sendFrame(conn, FrameType::Error, error);
            return;
        }
        conn.streamHandle = handle;
        conn.streamNext = fromRecord;
        conn.streamWait = wait;
        serviceStream(conn);
        return;
      }
      case FrameType::Cancel: {
        BatchHandle handle = 0;
        BatchState state = BatchState::Pending;
        if (!parseRequest(frame.payload, handle, error) ||
            !daemon_.cancel(handle, state, error)) {
            sendFrame(conn, FrameType::Error, error);
            return;
        }
        std::string reply;
        kvLine(reply, "state", batchStateName(state));
        sendFrame(conn, FrameType::CancelOk, reply);
        return;
      }
      case FrameType::Stats:
        sendFrame(conn, FrameType::StatsOk,
                  statsPayload(daemon_.stats()));
        return;
      case FrameType::Shutdown:
        sendFrame(conn, FrameType::ShutdownOk, "");
        requestStop();
        return;
      default:
        sendFrame(conn, FrameType::Error,
                  std::string("unexpected frame type '") +
                      frameTypeName(frame.type) + "'");
        return;
    }
}

void
ServeSocketServer::serviceStream(Connection &conn)
{
    if (conn.streamHandle == 0)
        return;
    StreamChunk chunk;
    std::string error;
    if (!daemon_.stream(conn.streamHandle, conn.streamNext, chunk,
                        error)) {
        sendFrame(conn, FrameType::Error, error);
        conn.streamHandle = 0;
        return;
    }
    if (chunk.records > 0) {
        // One logical chunk can exceed the frame ceiling (a client
        // catching up on a long journal in one request): split it at
        // record-line boundaries so the daemon's own send path can
        // never trip encodeFrame's fatal().
        std::size_t offset = 0;
        while (offset < chunk.lines.size()) {
            std::size_t take = streamSliceBytes(chunk.lines, offset,
                                                maxFramePayload);
            if (!sendFrame(conn, FrameType::StreamChunk,
                           chunk.lines.substr(offset, take)))
                return;
            offset += take;
        }
        conn.streamNext = chunk.nextRecord;
    }
    if (chunk.terminal || !conn.streamWait) {
        std::string reply;
        kvLine(reply, "state", batchStateName(chunk.state));
        sendFrame(conn, FrameType::StreamEnd, reply);
        conn.streamHandle = 0;
    }
}

bool
ServeSocketServer::sendFrame(Connection &conn, FrameType type,
                             const std::string &payload)
{
    if (conn.closed)
        return false;
    conn.outBuffer += encodeFrame(type, payload);
    flushConnection(conn);
    return !conn.closed;
}

void
ServeSocketServer::flushConnection(Connection &conn)
{
    while (conn.outStart < conn.outBuffer.size()) {
        ssize_t n = ::send(conn.fd,
                           conn.outBuffer.data() + conn.outStart,
                           conn.outBuffer.size() - conn.outStart,
                           MSG_NOSIGNAL);
        if (n > 0) {
            conn.outStart += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break; // kernel buffer full; POLLOUT resumes the drain
        closeConnection(conn);
        return;
    }
    if (conn.outStart == conn.outBuffer.size()) {
        conn.outBuffer.clear();
        conn.outStart = 0;
    } else if (conn.outStart > 4096 &&
               conn.outStart * 2 >= conn.outBuffer.size()) {
        conn.outBuffer.erase(0, conn.outStart);
        conn.outStart = 0;
    }
    // A subscriber that stopped reading accumulates outbound bytes
    // without bound; past the ceiling it is dropped — it only ever
    // hurts itself, never the other clients.
    if (conn.outBuffer.size() - conn.outStart > maxOutboundBuffered)
        closeConnection(conn);
}

void
ServeSocketServer::closeConnection(Connection &conn)
{
    if (conn.fd >= 0)
        ::close(conn.fd);
    conn.fd = -1;
    conn.closed = true;
    conn.streamHandle = 0;
    conn.outBuffer.clear();
    conn.outStart = 0;
}

ServeClient::~ServeClient()
{
    close();
}

void
ServeClient::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

bool
ServeClient::connect(const std::string &socketPath,
                     std::string &error)
{
    close();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath.size() >= sizeof(addr.sun_path)) {
        error = "socket path too long";
        return false;
    }
    std::memcpy(addr.sun_path, socketPath.c_str(),
                socketPath.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
        error = std::string("cannot create socket: ") +
                std::strerror(errno);
        return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        error = "cannot connect to '" + socketPath +
                "': " + std::strerror(errno);
        close();
        return false;
    }
    return true;
}

bool
ServeClient::call(FrameType type, const std::string &payload,
                  FrameType expected, Frame &reply, std::string &error)
{
    if (fd_ < 0) {
        error = "not connected";
        return false;
    }
    if (!writeFrame(fd_, type, payload, error))
        return false;
    if (!readFrame(fd_, reply, error))
        return false;
    if (reply.type == FrameType::Error) {
        error = reply.payload;
        return false;
    }
    if (reply.type != expected) {
        error = std::string("unexpected reply '") +
                frameTypeName(reply.type) + "'";
        return false;
    }
    return true;
}

bool
ServeClient::submit(const std::string &payload,
                    std::string &handleHex, std::string &error)
{
    Frame reply;
    if (!call(FrameType::Submit, payload, FrameType::SubmitOk, reply, error))
        return false;
    KvConfig kv = KvConfig::fromString(reply.payload, "<reply>");
    handleHex = kv.getString("batch");
    if (handleHex.empty()) {
        error = "daemon reply is missing the batch handle";
        return false;
    }
    return true;
}

bool
ServeClient::status(const std::string &handleHex, std::string &reply,
                    std::string &error)
{
    std::string request;
    kvLine(request, "batch", handleHex);
    Frame frame;
    if (!call(FrameType::Status, request, FrameType::StatusOk, frame, error))
        return false;
    reply = frame.payload;
    return true;
}

bool
ServeClient::stream(const std::string &handleHex,
                    std::size_t fromRecord, bool wait,
                    std::string &lines, std::string &finalState,
                    std::string &error)
{
    std::string request;
    kvLine(request, "batch", handleHex);
    kvLine(request, "from", std::to_string(fromRecord));
    kvLine(request, "wait", wait ? "1" : "0");
    if (!writeFrame(fd_, FrameType::Stream, request, error))
        return false;
    lines.clear();
    for (;;) {
        Frame frame;
        if (!readFrame(fd_, frame, error))
            return false;
        switch (frame.type) {
          case FrameType::StreamChunk:
            lines += frame.payload;
            break;
          case FrameType::StreamEnd: {
            KvConfig kv =
                KvConfig::fromString(frame.payload, "<reply>");
            finalState = kv.getString("state");
            return true;
          }
          case FrameType::Error:
            error = frame.payload;
            return false;
          default:
            error = std::string("unexpected reply '") +
                    frameTypeName(frame.type) + "'";
            return false;
        }
    }
}

bool
ServeClient::cancel(const std::string &handleHex, std::string &state,
                    std::string &error)
{
    std::string request;
    kvLine(request, "batch", handleHex);
    Frame frame;
    if (!call(FrameType::Cancel, request, FrameType::CancelOk, frame, error))
        return false;
    KvConfig kv = KvConfig::fromString(frame.payload, "<reply>");
    state = kv.getString("state");
    return true;
}

bool
ServeClient::stats(std::string &reply, std::string &error)
{
    Frame frame;
    if (!call(FrameType::Stats, "", FrameType::StatsOk, frame, error))
        return false;
    reply = frame.payload;
    return true;
}

bool
ServeClient::shutdown(std::string &error)
{
    Frame frame;
    if (!call(FrameType::Shutdown, "", FrameType::ShutdownOk, frame, error))
        return false;
    return true;
}

} // namespace uvmasync
