/**
 * @file
 * Status and error reporting in the spirit of gem5's logging.hh.
 *
 * panic()  — internal simulator invariant broken; aborts.
 * fatal()  — user/configuration error; exits with an error code.
 * warn()   — something is modelled approximately; simulation continues.
 * inform() — plain status output, on stderr: stdout carries data only.
 */

#ifndef UVMASYNC_COMMON_LOGGING_HH
#define UVMASYNC_COMMON_LOGGING_HH

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace uvmasync
{

/** Verbosity levels for runtime log filtering. */
enum class LogLevel
{
    Silent = 0,
    Warn = 1,
    Inform = 2,
    Debug = 3,
};

/** Set the global verbosity; messages above the level are dropped. */
void setLogLevel(LogLevel level);

/** Current global verbosity. */
LogLevel logLevel();

/** Printf-style formatting into a std::string. */
std::string vstrfmt(const char *fmt, std::va_list args);

/** Printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an internal simulator bug and abort. Never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user error and exit(1) — unless the calling
 * thread holds a FatalThrowScope, in which case the formatted message
 * is thrown as a FatalError instead. Never returns normally.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** What fatal() throws inside a FatalThrowScope. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * RAII guard turning fatal() on this thread into a FatalError throw
 * for its lifetime. Batch drivers (the parallel experiment engine)
 * hold one around each job so a poisoned configuration fails that one
 * job with a structured error instead of exiting the whole process.
 * Nests; fatal() reverts to exit(1) once the last scope unwinds.
 */
class FatalThrowScope
{
  public:
    FatalThrowScope();
    ~FatalThrowScope();
    FatalThrowScope(const FatalThrowScope &) = delete;
    FatalThrowScope &operator=(const FatalThrowScope &) = delete;
};

/** Report a modelling approximation or suspicious condition. */
void warn(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report normal status on stderr. */
void inform(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Assert an invariant with a formatted message; compiled in all build
 * types since simulator correctness depends on it.
 */
#define UVMASYNC_ASSERT(cond, ...)                                        \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::uvmasync::panic("assertion '%s' failed at %s:%d: %s",       \
                              #cond, __FILE__, __LINE__,                  \
                              ::uvmasync::strfmt(__VA_ARGS__).c_str());   \
        }                                                                 \
    } while (0)

} // namespace uvmasync

#endif // UVMASYNC_COMMON_LOGGING_HH
