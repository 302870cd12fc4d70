/**
 * @file
 * gem5-style status/error reporting: panic(), fatal(), warn() and
 * inform().
 *
 * panic() is for simulator bugs (assert-like, aborts); fatal() is for
 * user errors such as invalid configurations (clean exit); warn() and
 * inform() print to stderr and continue. High-volume debug events go
 * to the structured trace sink instead (common/trace_sink.hh, enabled
 * with --trace=<channels|all>).
 *
 * Thread-safety: each message is formatted into a private buffer and
 * emitted with a single stdio call, so concurrent campaign workers
 * never interleave partial lines.
 */

#ifndef DMDC_COMMON_LOGGING_HH
#define DMDC_COMMON_LOGGING_HH

#include <cstdarg>

namespace dmdc
{

/** Severity of a log message. */
enum class LogLevel { Inform, Warn, Fatal, Panic };

namespace detail
{
/** Format and dispatch one message; exits/aborts for Fatal/Panic. */
[[gnu::format(printf, 2, 3)]]
void logMessage(LogLevel level, const char *fmt, ...);
} // namespace detail

/** Report a simulator bug and abort. */
template <typename... Args>
[[noreturn]] void
panic(const char *fmt, Args... args)
{
    detail::logMessage(LogLevel::Panic, fmt, args...);
    __builtin_unreachable();
}

/** Report an unrecoverable user/configuration error and exit(1). */
template <typename... Args>
[[noreturn]] void
fatal(const char *fmt, Args... args)
{
    detail::logMessage(LogLevel::Fatal, fmt, args...);
    __builtin_unreachable();
}

/** Report a suspicious condition and continue. */
template <typename... Args>
void
warn(const char *fmt, Args... args)
{
    detail::logMessage(LogLevel::Warn, fmt, args...);
}

/** Report normal operating status. */
template <typename... Args>
void
inform(const char *fmt, Args... args)
{
    detail::logMessage(LogLevel::Inform, fmt, args...);
}

} // namespace dmdc

#endif // DMDC_COMMON_LOGGING_HH
