/**
 * @file
 * The record log: the one on-disk record format under the run
 * journal, the result-store segments and the daemon's batch journals.
 *
 * A log is a file of '\n'-terminated lines, and every line, headers
 * included, is one framed record:
 *
 *   {"crc":"<16 lowercase hex>","rec":<payload>}\n
 *
 * The checksum is mix64(fnv1a(payload)) over exactly the payload
 * bytes written (common/stable_hash.hh). The prefix has a fixed
 * width, so a reader verifies a record before it parses any JSON, and
 * each line is still valid JSON. A changed byte anywhere in a line is
 * caught: inside the payload by the checksum (FNV-1a is a bijection
 * at every step), anywhere else by the frame. A final fragment
 * without '\n' is a torn append and is never returned as a record.
 *
 * What a bad record means is each layer's policy, not the log's: the
 * journal refuses to resume past one, the store skips it, the daemon
 * serves only the records before it, and fsck reports and repairs.
 */

#ifndef UVMASYNC_IO_RECORD_LOG_HH
#define UVMASYNC_IO_RECORD_LOG_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/io_env.hh"

namespace uvmasync
{

/** One framed line, '\n' included: the exact bytes to append. */
std::string frameRecord(const std::string &payload);

/** One complete line of a log. */
struct LogRecord
{
    std::uint64_t offset = 0; //!< byte offset of the line in the file
    std::string payload;      //!< the verified payload (empty if bad)
    std::string error;        //!< why the frame failed ("" = verified)

    bool ok() const { return error.empty(); }
};

/** Everything scanRecordLog() learned about one log. */
struct RecordScan
{
    /** Every complete line, in file order, verified or not. */
    std::vector<LogRecord> records;

    /** Bytes after the last '\n' (a torn append), 0 when none. */
    std::uint64_t tornBytes = 0;
};

/** Split @p contents into lines and verify each frame. */
RecordScan scanRecordLog(const std::string &contents);

/**
 * The write side of one log file. It holds the open file and the
 * number of bytes known to be good, i.e. to end in a complete record.
 * The first failed open or append is sticky: the file is closed,
 * truncated back to the good bytes (removed when there are none), and
 * every later append is declined, so what stays on disk is always a
 * clean log. Durability is fixed per caller: the journal fsyncs every
 * record, the store only flushes it.
 */
class RecordAppender
{
  public:
    enum class Durability
    {
        Flush, //!< survives a process kill (the store: a cache)
        Sync,  //!< survives a power cut (the journal: the contract)
    };

    RecordAppender(IoEnv &env, std::string path, Durability durability);

    /**
     * Open for appending after the first @p goodBytes bytes, cutting
     * anything past them; 0 starts a fresh, empty file.
     */
    IoStatus open(std::uint64_t goodBytes);

    /** Frame, write and flush or sync one record. */
    IoStatus append(const std::string &payload);

    bool failed() const { return failed_; }

    /** errno text of the failure that made the appender inert. */
    const std::string &error() const { return error_; }

    /** Bytes known to end in a complete record. */
    std::uint64_t bytes() const { return good_; }

  private:
    IoStatus fail(const IoStatus &st);

    IoEnv &env_;
    std::string path_;
    Durability durability_;
    std::unique_ptr<IoFile> file_;
    std::uint64_t good_ = 0;
    bool failed_ = false;
    std::string error_;
};

} // namespace uvmasync

#endif // UVMASYNC_IO_RECORD_LOG_HH
