/**
 * @file
 * Length-prefixed frame codec of the campaign daemon's local-socket
 * protocol.
 *
 * A frame is 5 bytes of header — a 4-byte big-endian payload length
 * and a 1-byte frame type — followed by the payload. Payloads reuse
 * the repo's existing exchange formats verbatim: batch submissions
 * are the KV jobfile text (common/kv_config.hh), result streams are
 * the journal's strict-JSON hexfloat record payloads, one per line
 * (journal/journal.hh), and status/stats replies are KV text again.
 * The codec adds no serialization of its own, so everything that
 * crosses the socket round-trips byte-exactly through layers that
 * already have determinism tests.
 *
 * FrameReader is an incremental decoder for poll()-driven servers:
 * feed() it whatever recv() returned, take complete frames with
 * next(). readFrame()/writeFrame() are the blocking counterparts for
 * simple clients.
 */

#ifndef UVMASYNC_SERVE_WIRE_HH
#define UVMASYNC_SERVE_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace uvmasync
{

/** Frame types; the byte value is part of the wire format. */
enum class FrameType : std::uint8_t
{
    Submit = 1,  //!< client -> daemon: KV batch spec
    SubmitOk,    //!< daemon -> client: "batch=<hex16>"
    Status,      //!< client -> daemon: "batch=<hex16>"
    StatusOk,    //!< daemon -> client: KV status block
    Stream,      //!< client -> daemon: "batch=<hex16>\nfrom=N\nwait=0|1"
    StreamChunk, //!< daemon -> client: journal record payloads
    StreamEnd,   //!< daemon -> client: "state=<slug>"
    Cancel,      //!< client -> daemon: "batch=<hex16>"
    CancelOk,    //!< daemon -> client: "state=<slug>"
    Stats,       //!< client -> daemon: empty payload
    StatsOk,     //!< daemon -> client: KV counters
    Shutdown,    //!< client -> daemon: empty payload
    ShutdownOk,  //!< daemon -> client: empty payload
    Error,       //!< daemon -> client: human-readable message
};

/** Stable frame-type slug ("submit", "stream_chunk", ...). */
const char *frameTypeName(FrameType type);

/** True for byte values that decode to a known FrameType. */
bool frameTypeValid(std::uint8_t raw);

/**
 * Payload ceiling (16 MiB). A frame header announcing more is a
 * protocol error, not an allocation request — a garbage or hostile
 * length prefix must never drive daemon memory.
 */
constexpr std::uint32_t maxFramePayload = 16u << 20;

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::Error;
    std::string payload;
};

/** Serialize one frame (header + payload) into a byte string. */
std::string encodeFrame(FrameType type, const std::string &payload);

/**
 * Size of the next slice when splitting record @p lines into frames
 * of at most @p cap bytes, starting at @p offset: the longest prefix
 * that fits, cut back to the last '\n' so no record line straddles a
 * frame boundary. A single line longer than @p cap splits mid-line —
 * concatenating the slices still reproduces the bytes exactly.
 * Returns 0 only when @p offset is past the end (or @p cap is 0).
 */
std::size_t streamSliceBytes(const std::string &lines,
                             std::size_t offset, std::size_t cap);

/**
 * Incremental frame decoder. feed() bytes as they arrive; next()
 * yields complete frames in order. A malformed header (unknown type
 * byte, payload over maxFramePayload) puts the reader into a sticky
 * error state — the stream has lost sync and the connection should
 * be dropped.
 */
class FrameReader
{
  public:
    /** Append raw bytes received from the peer. */
    void feed(const void *data, std::size_t size);

    /**
     * Take the next complete frame. Returns false with @p error
     * empty when more bytes are needed, false with @p error set when
     * the stream is corrupt (sticky).
     */
    bool next(Frame &out, std::string &error);

    /** True once a protocol error has been seen. */
    bool corrupt() const { return !error_.empty(); }

    /** Bytes buffered but not yet consumed by next(). */
    std::size_t pending() const { return buffer_.size() - start_; }

  private:
    std::string buffer_;
    std::size_t start_ = 0; //!< consumed prefix of buffer_
    std::string error_;
};

/** @{
 * Blocking whole-frame I/O over a socket/pipe fd, for clients and
 * tests. Both retry EINTR; readFrame() returns false with an error
 * message on EOF, short reads, or a malformed header; writeFrame()
 * returns false when the peer is gone (EPIPE and friends).
 */
bool readFrame(int fd, Frame &out, std::string &error);
bool writeFrame(int fd, FrameType type, const std::string &payload,
                std::string &error);
/** @} */

} // namespace uvmasync

#endif // UVMASYNC_SERVE_WIRE_HH
