#include "io/record_log.hh"

#include <cinttypes>
#include <string_view>

#include "common/logging.hh"
#include "common/stable_hash.hh"

namespace uvmasync
{

namespace
{

constexpr const char framePrefix[] = "{\"crc\":\"";
constexpr const char frameMiddle[] = "\",\"rec\":";
constexpr std::size_t prefixSize = sizeof(framePrefix) - 1;
constexpr std::size_t crcSize = 16;
constexpr std::size_t middleSize = sizeof(frameMiddle) - 1;
constexpr std::size_t payloadStart = prefixSize + crcSize + middleSize;

std::string
checksumHex(const char *payload, std::size_t len)
{
    return strfmt("%016" PRIx64,
                  StableHasher().bytes(payload, len).hash());
}

/** Why @p line (no '\n') is not a framed record; "" when it is. */
std::string
verifyFrame(std::string_view line)
{
    if (line.size() <= payloadStart ||
        line.compare(0, prefixSize, framePrefix) != 0 ||
        line.compare(prefixSize + crcSize, middleSize, frameMiddle) != 0 ||
        line.back() != '}')
        return "malformed record frame";
    std::size_t len = line.size() - payloadStart - 1;
    if (line.compare(prefixSize, crcSize,
                     checksumHex(line.data() + payloadStart, len)) != 0)
        return "record checksum mismatch";
    return "";
}

} // namespace

std::string
frameRecord(const std::string &payload)
{
    std::string line;
    line.reserve(payloadStart + payload.size() + 2);
    line += framePrefix;
    line += checksumHex(payload.data(), payload.size());
    line += frameMiddle;
    line += payload;
    line += "}\n";
    return line;
}

RecordScan
scanRecordLog(const std::string &contents)
{
    RecordScan scan;
    std::size_t start = 0;
    while (start < contents.size()) {
        std::size_t nl = contents.find('\n', start);
        if (nl == std::string::npos)
            break;
        LogRecord rec;
        rec.offset = start;
        std::string_view line(contents.data() + start, nl - start);
        rec.error = verifyFrame(line);
        if (rec.ok())
            rec.payload = line.substr(payloadStart,
                                      line.size() - payloadStart - 1);
        scan.records.push_back(std::move(rec));
        start = nl + 1;
    }
    scan.tornBytes = contents.size() - start;
    return scan;
}

RecordAppender::RecordAppender(IoEnv &env, std::string path,
                               Durability durability)
    : env_(env), path_(std::move(path)), durability_(durability)
{
}

IoStatus
RecordAppender::open(std::uint64_t goodBytes)
{
    UVMASYNC_ASSERT(!file_ && !failed_, "record log already opened");
    good_ = goodBytes;
    IoStatus st;
    if (goodBytes > 0)
        st = env_.truncateFile(path_, goodBytes);
    if (st.ok)
        file_ = goodBytes > 0 ? env_.openAppend(path_, st)
                              : env_.openTrunc(path_, st);
    return st.ok ? st : fail(st);
}

IoStatus
RecordAppender::append(const std::string &payload)
{
    UVMASYNC_ASSERT(file_ && !failed_, "record log not open");
    // One write per record, so a failed append tears at most one
    // line, and the fail path cuts that line away again.
    std::string line = frameRecord(payload);
    IoStatus st = file_->write(line);
    if (st.ok)
        st = durability_ == Durability::Sync ? file_->sync()
                                             : file_->flush();
    if (!st.ok)
        return fail(st);
    good_ += line.size();
    return st;
}

IoStatus
RecordAppender::fail(const IoStatus &st)
{
    // Best effort: the file is already in trouble, and a clean prefix
    // on disk is what matters to the next reader.
    failed_ = true;
    error_ = st.text();
    file_.reset();
    if (good_ == 0)
        env_.removeFile(path_); // a headerless stub would not load
    else
        env_.truncateFile(path_, good_);
    return st;
}

} // namespace uvmasync
