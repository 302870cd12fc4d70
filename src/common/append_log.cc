#include "common/append_log.hh"

#include <cerrno>

#include <fcntl.h>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/file_lock.hh"

namespace dmdc
{

bool
appendLogLine(const std::string &logPath, const std::string &lockPath,
              const std::string &line)
{
    FileLock lock(lockPath, FileLock::Mode::Shared);
    const int fd = ::open(logPath.c_str(),
                          O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                          0644);
    if (fd < 0)
        return false;
    // One write() per record: O_APPEND makes it land as an unsplit
    // unit even with concurrent appenders. A short write (full disk)
    // leaves a torn line the readers' CRC check will skip.
    ssize_t rc;
    do {
        rc = ::write(fd, line.data(), line.size());
    } while (rc < 0 && errno == EINTR);
    bool ok = rc == static_cast<ssize_t>(line.size());
    // The record only counts as durable once it's on disk: an index
    // entry that evaporates with the page cache defeats the
    // crash-recovery replay it exists for. (No-op under
    // setDurableSync(false)/DMDC_NO_FSYNC=1.)
    if (ok && !durableSyncFd(fd))
        ok = false;
    ::close(fd);
    return ok;
}

} // namespace dmdc
