/**
 * @file
 * Append-only log-line idiom for crash-safe sidecar logs.
 *
 * The cache index (`.dmdc_cache/index.log`) persists state as
 * newline-terminated, self-validating records appended by concurrent
 * writers. The safety argument lives here:
 *
 *  - the appender holds the sibling lock file *shared* (flock), which
 *    excludes a concurrent compaction (exclusive holder) from renaming
 *    the log away between the open and the write;
 *  - the record is written with a single write() on an O_APPEND fd,
 *    so concurrent appenders interleave whole records, never bytes;
 *  - readers CRC-check every record and skip torn or damaged lines,
 *    so a crash mid-append costs at most the record being written;
 *  - the fd is fsynced after the write (see atomic_file.hh's
 *    durability knob), so an acknowledged record survives power loss,
 *    not merely process death.
 */

#ifndef DMDC_COMMON_APPEND_LOG_HH
#define DMDC_COMMON_APPEND_LOG_HH

#include <string>

namespace dmdc
{

/**
 * Append @p line (which must already be newline-terminated) to the
 * log at @p logPath while holding @p lockPath shared. The log file is
 * created on demand (0644). Returns false when the log cannot be
 * opened or the write fails — callers treat that as a lost record,
 * never as fatal (append-only logs are accounting, not content).
 */
bool appendLogLine(const std::string &logPath,
                   const std::string &lockPath,
                   const std::string &line);

} // namespace dmdc

#endif // DMDC_COMMON_APPEND_LOG_HH
