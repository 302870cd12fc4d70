#include "sim/cache_store.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "sim/fault_injector.hh"

namespace dmdc
{

namespace fs = std::filesystem;

namespace
{

std::string
keyFileName(const std::string &key, const char *extension)
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx%s",
                  static_cast<unsigned long long>(
                      hashBytes(key.data(), key.size())),
                  extension);
    return name;
}

std::string
entryFileName(const std::string &key)
{
    return keyFileName(key, ".json");
}

const std::string &
hostName()
{
    static const std::string name = [] {
        char host[256] = {0};
        if (::gethostname(host, sizeof(host) - 1) != 0 || !host[0])
            return std::string("unknown");
        return std::string(host);
    }();
    return name;
}

/** What this process writes into the claims it holds (not cached:
 *  a forked child is a different holder). */
std::string
ownClaimText()
{
    return std::to_string(::getpid()) + ' ' + hostName() + '\n';
}

/**
 * Read all of @p path into @p out with one open, fstat and read (a
 * short read is continued). False when the file cannot be opened or
 * read; @p out is then empty. Entries are replaced by rename, never
 * rewritten in place, so fstat's size is the whole entry. A claim
 * read before its holder wrote it reads empty, which claim() allows
 * for.
 */
bool
readSmallFile(const std::string &path, std::string &out)
{
    out.clear();
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct ::stat st{};
    bool ok = ::fstat(fd, &st) == 0;
    if (ok) {
        out.resize(static_cast<std::size_t>(st.st_size));
        std::size_t got = 0;
        while (got < out.size()) {
            const ssize_t rc =
                ::read(fd, out.data() + got, out.size() - got);
            if (rc < 0 && errno == EINTR)
                continue;
            if (rc <= 0) {
                ok = rc == 0;
                break;
            }
            got += static_cast<std::size_t>(rc);
        }
        out.resize(ok ? got : 0);
    }
    ::close(fd);
    return ok;
}

/** One regular file found by oldestFirst(). */
struct DirFile
{
    fs::path path;
    std::uint64_t bytes;
    std::int64_t mtimeNs;
};

/**
 * The regular files of @p dir, with size and mtime from one stat
 * each, oldest first; ties break by name so every process agrees on
 * the order.
 */
std::vector<DirFile>
oldestFirst(const fs::path &dir)
{
    std::vector<DirFile> found;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(
             dir, fs::directory_options::skip_permission_denied, ec)) {
        struct ::stat st{};
        if (::stat(de.path().c_str(), &st) != 0 || !S_ISREG(st.st_mode))
            continue; // removed since the listing, or not a file
        const std::int64_t mtimeNs =
            static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
            st.st_mtim.tv_nsec;
        found.push_back(
            {de.path(), static_cast<std::uint64_t>(st.st_size), mtimeNs});
    }
    std::sort(found.begin(), found.end(),
              [](const DirFile &a, const DirFile &b) {
                  return a.mtimeNs != b.mtimeNs ? a.mtimeNs < b.mtimeNs
                                                : a.path < b.path;
              });
    return found;
}

} // namespace

CacheStore::CacheStore(CacheStoreConfig config)
    : config_(std::move(config))
{
}

std::string
CacheStore::entryPath(const std::string &key) const
{
    return config_.dir + "/" + entryFileName(key);
}

std::string
CacheStore::claimPath(const std::string &key) const
{
    return config_.dir + "/" + keyFileName(key, ".claim");
}

CacheStore::Claim
CacheStore::claim(const std::string &key)
{
    std::error_code ec;
    fs::create_directories(config_.dir, ec);
    const std::string path = claimPath(key);
    const std::string mine = ownClaimText();
    // A few rounds absorb a holder releasing, or a stale claim being
    // taken over, between our create and our read; persistent
    // contention reports Held and the caller polls again later.
    for (int round = 0; round < 4; ++round) {
        const int fd = ::open(path.c_str(),
                              O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC,
                              0644);
        if (fd >= 0) {
            const bool written =
                ::write(fd, mine.data(), mine.size()) ==
                static_cast<ssize_t>(mine.size());
            ::close(fd);
            if (written)
                return Claim::Won;
            ::unlink(path.c_str());
            return Claim::Unclaimed;
        }
        if (errno != EEXIST)
            return Claim::Unclaimed; // e.g. a read-only cache dir

        std::string held;
        readSmallFile(path, held);
        if (held.empty()) {
            // Released since our create, or created but not yet
            // written: a writer gets a second, then counts as dead.
            const auto mtime = fs::last_write_time(path, ec);
            if (ec)
                continue;
            if (fs::file_time_type::clock::now() - mtime <
                std::chrono::seconds(1))
                return Claim::Held;
        }
        long pid = 0;
        char host[256] = {0};
        const bool parsed =
            std::sscanf(held.c_str(), "%ld %255s", &pid, host) == 2 &&
            pid > 0;
        if (parsed && hostName() != host)
            return Claim::Unclaimed; // another host's claim: ignored
        const bool stale = !parsed || pid == ::getpid() ||
            (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH);
        if (!stale)
            return Claim::Held;

        // Take the stale claim over: move it aside and re-check, since
        // another process may have replaced it with a live claim after
        // our read. A live claim moved by mistake goes back (link()
        // never clobbers a claim created meanwhile).
        const std::string aside =
            path + "." + std::to_string(::getpid()) + ".stale";
        if (::rename(path.c_str(), aside.c_str()) != 0)
            continue;
        std::string now;
        readSmallFile(aside, now);
        if (now != held)
            (void)::link(aside.c_str(), path.c_str());
        ::unlink(aside.c_str());
    }
    return Claim::Held;
}

void
CacheStore::releaseClaim(const std::string &key)
{
    const std::string path = claimPath(key);
    std::string held;
    readSmallFile(path, held);
    if (held == ownClaimText())
        ::unlink(path.c_str());
}

CacheStore::Load
CacheStore::load(const std::string &key, std::string &payload)
{
    std::lock_guard<std::mutex> guard(mutex_);
    const std::string path = entryPath(key);
    std::string text;
    if (!readSmallFile(path, text)) {
        ++stats_.misses;
        return Load::Miss;
    }

    // v3 layout: a one-line CRC header followed by the JSON payload.
    //   {"dmdc_cache":3,"crc":"xxxxxxxx","len":N}\n{...payload...}\n
    if (text.empty()) {
        quarantinePath(path, "is zero-byte");
        return Load::Corrupt;
    }
    const std::size_t nl = text.find('\n');
    if (nl == std::string::npos) {
        quarantinePath(path, "has no header line");
        return Load::Corrupt;
    }
    // sscanf stops at the end of its format, so it reads the header in
    // place; a damaged CRC field fails the checksum below.
    unsigned version = 0;
    char crcBuf[16] = {0};
    unsigned long long expectedLen = 0;
    if (std::sscanf(text.c_str(),
                    "{\"dmdc_cache\":%u,\"crc\":\"%8[^\"]\","
                    "\"len\":%llu}",
                    &version, crcBuf, &expectedLen) != 3) {
        quarantinePath(path, "has an unrecognized header (old format?)");
        return Load::Corrupt;
    }
    if (version != kCacheFormatVersion) {
        quarantinePath(path, "has a mismatched format version");
        return Load::Corrupt;
    }
    if (text.size() - (nl + 1) != expectedLen) {
        quarantinePath(path, "is truncated");
        return Load::Corrupt;
    }
    const std::uint32_t expectedCrc = static_cast<std::uint32_t>(
        std::strtoul(crcBuf, nullptr, 16));
    if (crc32(text.data() + nl + 1, expectedLen) != expectedCrc) {
        quarantinePath(path, "fails its checksum");
        return Load::Corrupt;
    }
    text.erase(0, nl + 1); // in place: no second buffer
    payload = std::move(text);
    ++stats_.hits;
    return Load::Hit;
}

void
CacheStore::store(const std::string &key, const std::string &payload)
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::error_code ec;
    fs::create_directories(config_.dir, ec);
    if (ec) {
        warn("cannot create cache dir '%s': %s", config_.dir.c_str(),
             ec.message().c_str());
        return;
    }

    char header[64];
    const int headerLen = std::snprintf(
        header, sizeof(header),
        "{\"dmdc_cache\":%u,\"crc\":\"%08x\",\"len\":%llu}\n",
        kCacheFormatVersion, crc32(payload.data(), payload.size()),
        static_cast<unsigned long long>(payload.size()));
    // Deterministic chaos: emit a truncated payload under the intact
    // header, exactly what a torn write or disk fault produces. The
    // next reader must quarantine and recompute.
    const std::size_t kept = FaultInjector::global().injectCacheCorrupt(key)
        ? payload.size() / 2 : payload.size();
    std::string text(header, static_cast<std::size_t>(headerLen));
    text.append(payload, 0, kept);

    const std::string path = entryPath(key);
    // Concurrent processes share the cache directory and must never
    // observe a torn file.
    if (!writeFileAtomic(path, text)) {
        warn("cannot write cache file '%s'", path.c_str());
        return;
    }
    ++stats_.stored;
}

void
CacheStore::quarantineKey(const std::string &key, const char *reason)
{
    std::lock_guard<std::mutex> guard(mutex_);
    quarantinePath(entryPath(key), reason);
}

void
CacheStore::quarantinePath(const std::string &path, const char *reason)
{
    std::error_code ec;
    const fs::path src(path);
    const fs::path dir = fs::path(config_.dir) / "quarantine";
    fs::create_directories(dir, ec);
    fs::rename(src, dir / src.filename(), ec);
    if (ec) {
        // Rename failed (e.g. cross-device); never trust the entry —
        // drop it instead.
        fs::remove(src, ec);
    }
    warn("cache entry '%s' %s; quarantined and recomputing",
         path.c_str(), reason);
    ++stats_.quarantined;
    enforceQuarantineCap();
}

void
CacheStore::enforceQuarantineCap()
{
    if (!config_.quarantineMaxEntries && !config_.quarantineMaxBytes)
        return;
    const std::vector<DirFile> found =
        oldestFirst(fs::path(config_.dir) / "quarantine");
    std::uint64_t total = 0;
    for (const DirFile &f : found)
        total += f.bytes;
    auto over = [&](std::size_t count, std::uint64_t bytes) {
        return (config_.quarantineMaxEntries &&
                count > config_.quarantineMaxEntries) ||
               (config_.quarantineMaxBytes &&
                bytes > config_.quarantineMaxBytes);
    };
    // Oldest first: recent quarantines are the ones someone is likely
    // to want for a post-mortem.
    std::error_code ec;
    std::size_t count = found.size();
    for (const DirFile &f : found) {
        if (!over(count, total))
            break;
        if (fs::remove(f.path, ec)) {
            total -= f.bytes;
            --count;
            ++stats_.quarantineEvicted;
        }
    }
}

std::size_t
CacheStore::liveEntries() const
{
    std::size_t n = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(
             config_.dir, fs::directory_options::skip_permission_denied,
             ec)) {
        if (de.path().extension() == ".json")
            ++n;
    }
    return n;
}

} // namespace dmdc
