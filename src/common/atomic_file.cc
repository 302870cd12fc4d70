#include "common/atomic_file.hh"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

namespace dmdc
{

namespace
{

std::atomic<std::uint64_t> g_fsyncs{0};

bool
durableSyncDefault()
{
    const char *env = std::getenv("DMDC_NO_FSYNC");
    return !(env && env[0] == '1' && env[1] == '\0');
}

std::atomic<bool> g_durable{durableSyncDefault()};

/** fsync @p fd, counting the call. False on failure (EINTR retried). */
bool
syncFd(int fd)
{
    g_fsyncs.fetch_add(1, std::memory_order_relaxed);
    int rc;
    do {
        rc = ::fsync(fd);
    } while (rc < 0 && errno == EINTR);
    return rc == 0;
}

/**
 * fsync the directory containing @p path so the rename's directory
 * entry itself is on disk. Best-effort: some filesystems refuse
 * directory fsync (EINVAL) and the file is already visible either
 * way.
 */
void
syncParentDir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int fd = ::open(dir.empty() ? "/" : dir.c_str(),
                          O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return;
    syncFd(fd);
    ::close(fd);
}

/** Full write() loop: EINTR retries, partial writes continued. */
bool
writeAll(int fd, const char *data, std::size_t size)
{
    while (size > 0) {
        const ssize_t rc = ::write(fd, data, size);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += rc;
        size -= static_cast<std::size_t>(rc);
    }
    return true;
}

} // namespace

void
setDurableSync(bool enabled)
{
    g_durable.store(enabled, std::memory_order_relaxed);
}

bool
durableSyncEnabled()
{
    return g_durable.load(std::memory_order_relaxed);
}

std::uint64_t
durableSyncCount()
{
    return g_fsyncs.load(std::memory_order_relaxed);
}

bool
writeFileAtomic(const std::string &path, const std::string &content)
{
    namespace fs = std::filesystem;
    std::ostringstream tmp_name;
    // pid + thread id: thread ids alone can collide *across*
    // processes (every process's main thread may share one), and
    // cache and journal directories are shared between processes.
    tmp_name << path << ".tmp." << ::getpid() << '.'
             << std::this_thread::get_id();
    const std::string tmp = tmp_name.str();

    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0)
        return false;
    bool ok = writeAll(fd, content.data(), content.size());
    // Data blocks must reach disk *before* the rename publishes the
    // name, or a power cut can leave the new name pointing at a
    // zero-length or garbage file.
    if (ok && durableSyncEnabled())
        ok = syncFd(fd);
    if (::close(fd) != 0)
        ok = false;
    std::error_code ec;
    if (!ok) {
        fs::remove(tmp, ec);
        return false;
    }

    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    // And the directory entry after: the rename itself is metadata in
    // the parent directory.
    if (durableSyncEnabled())
        syncParentDir(path);
    return true;
}

} // namespace dmdc
