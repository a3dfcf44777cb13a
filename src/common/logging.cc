#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace uvmasync
{

namespace
{

LogLevel globalLevel = LogLevel::Inform;

/** Depth of nested FatalThrowScopes on this thread. */
thread_local int fatalThrowDepth = 0;

void
emit(const char *tag, FILE *stream, const char *fmt, std::va_list args)
{
    std::string body = vstrfmt(fmt, args);
    std::fprintf(stream, "%s%s\n", tag, body.c_str());
    std::fflush(stream);
}

} // namespace

void
setLogLevel(LogLevel level)
{
    globalLevel = level;
}

LogLevel
logLevel()
{
    return globalLevel;
}

std::string
vstrfmt(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

std::string
strfmt(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string out = vstrfmt(fmt, args);
    va_end(args);
    return out;
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    emit("panic: ", stderr, fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    if (fatalThrowDepth > 0) {
        std::string body = vstrfmt(fmt, args);
        va_end(args);
        throw FatalError(body);
    }
    emit("fatal: ", stderr, fmt, args);
    va_end(args);
    std::exit(1);
}

FatalThrowScope::FatalThrowScope()
{
    ++fatalThrowDepth;
}

FatalThrowScope::~FatalThrowScope()
{
    --fatalThrowDepth;
}

void
warn(const char *fmt, ...)
{
    if (globalLevel < LogLevel::Warn)
        return;
    std::va_list args;
    va_start(args, fmt);
    emit("warn: ", stderr, fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    if (globalLevel < LogLevel::Inform)
        return;
    std::va_list args;
    va_start(args, fmt);
    emit("info: ", stderr, fmt, args);
    va_end(args);
}

} // namespace uvmasync
