/**
 * @file
 * Implementation of the gem5-style logging helpers.
 */

#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace dmdc
{

namespace
{

const char *
levelPrefix(LogLevel level)
{
    switch (level) {
      case LogLevel::Inform: return "info";
      case LogLevel::Warn:   return "warn";
      case LogLevel::Fatal:  return "fatal";
      case LogLevel::Panic:  return "panic";
    }
    return "?";
}

} // namespace

namespace detail
{

void
logMessage(LogLevel level, const char *fmt, ...)
{
    // Simulations run concurrently under the campaign engine: each
    // message is formatted into a private buffer and written with one
    // stdio call, so lines never interleave across threads (stdio
    // itself locks per call).
    char stack_buf[512];
    std::va_list ap;
    va_start(ap, fmt);
    std::va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(stack_buf, sizeof(stack_buf), fmt, ap);
    va_end(ap);

    std::string heap_buf;
    const char *msg = stack_buf;
    if (n >= static_cast<int>(sizeof(stack_buf))) {
        heap_buf.resize(static_cast<std::size_t>(n) + 1);
        std::vsnprintf(heap_buf.data(), heap_buf.size(), fmt, ap2);
        msg = heap_buf.c_str();
    }
    va_end(ap2);

    std::fprintf(stderr, "%s: %s\n", levelPrefix(level),
                 n < 0 ? fmt : msg);

    if (level == LogLevel::Panic)
        std::abort();
    if (level == LogLevel::Fatal)
        std::exit(1);
}

} // namespace detail

} // namespace dmdc
