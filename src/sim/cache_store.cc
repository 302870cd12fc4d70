#include "sim/cache_store.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/append_log.hh"
#include "common/atomic_file.hh"
#include "common/crc32.hh"
#include "common/file_lock.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "sim/fault_injector.hh"

namespace dmdc
{

namespace fs = std::filesystem;

namespace
{

/** Canonical CRC input of one index record: what the checksum must
 *  cover so a torn or spliced line cannot masquerade as valid. */
std::string
recordCrcInput(const char *op, const std::string &file,
               std::uint64_t bytes)
{
    std::ostringstream os;
    os << op << '|' << file << '|' << bytes;
    return os.str();
}

/**
 * Parse one index log line. Records are machine-written by this file
 * with a fixed field order, so a shape-strict scan is both sufficient
 * and a useful tamper detector (anything reordered or hand-edited
 * fails and is skipped).
 */
bool
parseRecord(const std::string &line, std::string &op,
            std::string &file, std::uint64_t &bytes)
{
    unsigned version = 0;
    char opBuf[8] = {0};
    char fileBuf[64] = {0};
    unsigned long long rawBytes = 0;
    char crcBuf[16] = {0};
    const int got = std::sscanf(
        line.c_str(),
        "{\"v\":%u,\"op\":\"%7[^\"]\",\"file\":\"%63[^\"]\","
        "\"bytes\":%llu,\"crc\":\"%8[^\"]\"}",
        &version, opBuf, fileBuf, &rawBytes, crcBuf);
    if (got != 5 || version != kCacheIndexVersion)
        return false;
    op = opBuf;
    file = fileBuf;
    bytes = rawBytes;
    const std::string covered = recordCrcInput(op.c_str(), file, bytes);
    const std::uint32_t expected = static_cast<std::uint32_t>(
        std::strtoul(crcBuf, nullptr, 16));
    return crc32(covered.data(), covered.size()) == expected;
}

std::string
formatRecord(const char *op, const std::string &file,
             std::uint64_t bytes)
{
    const std::string covered = recordCrcInput(op, file, bytes);
    char line[192];
    std::snprintf(line, sizeof(line),
                  "{\"v\":%u,\"op\":\"%s\",\"file\":\"%s\","
                  "\"bytes\":%llu,\"crc\":\"%08x\"}\n",
                  kCacheIndexVersion, op, file.c_str(),
                  static_cast<unsigned long long>(bytes),
                  crc32(covered.data(), covered.size()));
    return line;
}

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

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::stringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

} // namespace

CacheStore::CacheStore(CacheStoreConfig config)
    : config_(std::move(config))
{
}

std::string
CacheStore::indexLogPath() const
{
    return config_.dir + "/index.log";
}

std::string
CacheStore::indexLockPath() const
{
    return config_.dir + "/index.lock";
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

        const std::string held = slurp(path);
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
        if (slurp(aside) != held)
            (void)::link(aside.c_str(), path.c_str());
        ::unlink(aside.c_str());
    }
    return Claim::Held;
}

void
CacheStore::releaseClaim(const std::string &key)
{
    const std::string path = claimPath(key);
    if (slurp(path) == ownClaimText())
        ::unlink(path.c_str());
}

void
CacheStore::ensureLoaded()
{
    if (loaded_)
        return;
    loaded_ = true;
    std::error_code ec;
    if (!fs::exists(config_.dir, ec))
        return; // stay lazy: nothing exists until the first store
    catchUp();
    if (!entries_.empty())
        return;
    // The index knows nothing but the directory may hold entries (a
    // pre-index cache, or a deleted/ruined log). This is the one
    // place a directory scan is allowed outside an explicit rebuild.
    for (const auto &de : fs::directory_iterator(
             config_.dir, fs::directory_options::skip_permission_denied,
             ec)) {
        if (de.is_regular_file(ec) &&
            de.path().extension() == ".json") {
            rebuildIndex();
            return;
        }
    }
}

void
CacheStore::applyRecord(const std::string &op, const std::string &file,
                        std::uint64_t bytes)
{
    ++seq_;
    if (op == "del") {
        auto it = entries_.find(file);
        if (it == entries_.end())
            return;
        liveBytes_ -= std::min(liveBytes_, it->second.bytes);
        entries_.erase(it);
        return;
    }
    // "put" and "touch" both (re)assert presence; replays are
    // idempotent because the byte delta is computed off current state.
    Entry &e = entries_[file];
    if (bytes) {
        liveBytes_ += bytes;
        liveBytes_ -= std::min(liveBytes_, e.bytes);
        e.bytes = bytes;
    }
    e.lastSeq = seq_;
}

void
CacheStore::catchUp(bool haveExclusiveLock)
{
    FileLock lock;
    if (!haveExclusiveLock) {
        // Shared: appends may interleave with the read (whole records
        // thanks to O_APPEND), but a compaction cannot swap the file
        // out from between our stat and our read.
        lock = FileLock(indexLockPath(), FileLock::Mode::Shared);
    }
    struct ::stat st{};
    if (::stat(indexLogPath().c_str(), &st) != 0) {
        if (indexIno_) {
            // The log vanished under us; forget what it taught us.
            entries_.clear();
            liveBytes_ = 0;
            indexIno_ = 0;
            indexReadPos_ = 0;
        }
        return;
    }
    const auto ino = static_cast<std::uint64_t>(st.st_ino);
    const auto size = static_cast<std::uint64_t>(st.st_size);
    if (ino != indexIno_ || size < indexReadPos_) {
        // A different file (compaction/rebuild by another process) or
        // a truncation: replay from the top. seq_ keeps rising so
        // recency stays monotonic across the reload.
        entries_.clear();
        liveBytes_ = 0;
        indexReadPos_ = 0;
        indexIno_ = ino;
    }
    if (size == indexReadPos_)
        return;
    std::ifstream is(indexLogPath(), std::ios::binary);
    if (!is)
        return;
    is.seekg(static_cast<std::streamoff>(indexReadPos_));
    std::string buffer(size - indexReadPos_, '\0');
    is.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    buffer.resize(static_cast<std::size_t>(is.gcount()));

    // Consume whole lines; a record that fails its CRC (torn write
    // joined with a later append, bit rot) is skipped, never fatal —
    // entry files are the source of truth for content, the index only
    // for accounting. A trailing partial line stays unconsumed so a
    // later catch-up rereads it once complete.
    std::size_t pos = 0;
    std::size_t consumed = 0;
    while (true) {
        const std::size_t nl = buffer.find('\n', pos);
        if (nl == std::string::npos)
            break;
        std::string op, file;
        std::uint64_t bytes = 0;
        if (parseRecord(buffer.substr(pos, nl - pos), op, file, bytes))
            applyRecord(op, file, bytes);
        pos = nl + 1;
        consumed = pos;
    }
    indexReadPos_ += consumed;
}

void
CacheStore::appendRecord(const char *op, const std::string &file,
                         std::uint64_t bytes)
{
    // Shared-lock single-write append (common/append_log.hh): whole
    // records interleave, and a compaction can never rename the log
    // away between our open and our write.
    if (!appendLogLine(indexLogPath(), indexLockPath(),
                       formatRecord(op, file, bytes))) {
        warn("cache: cannot append to index '%s'",
             indexLogPath().c_str());
    }
    ++appendedSinceCompact_;
    // Apply locally too; if catch-up later rereads our own record the
    // replay is idempotent.
    applyRecord(op, file, bytes);
}

void
CacheStore::rebuildIndex()
{
    // Exclusive and blocking: rebuilds happen at open time and must
    // not race a compactor. Whoever wins may have built the index
    // for us while we waited.
    FileLock lock(indexLockPath(), FileLock::Mode::Exclusive);
    struct ::stat st{};
    if (::stat(indexLogPath().c_str(), &st) == 0 && st.st_size > 0) {
        catchUp(/*haveExclusiveLock=*/true);
        if (!entries_.empty())
            return;
    }

    struct Found
    {
        std::string file;
        std::uint64_t bytes;
        fs::file_time_type mtime;
    };
    std::vector<Found> found;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(
             config_.dir, fs::directory_options::skip_permission_denied,
             ec)) {
        if (!de.is_regular_file(ec) ||
            de.path().extension() != ".json")
            continue;
        found.push_back({de.path().filename().string(),
                         de.file_size(ec), de.last_write_time(ec)});
    }
    // Oldest first so replay order doubles as LRU order.
    std::sort(found.begin(), found.end(),
              [](const Found &a, const Found &b) {
                  return a.mtime < b.mtime;
              });

    std::string text;
    entries_.clear();
    liveBytes_ = 0;
    for (const Found &f : found) {
        text += formatRecord("put", f.file, f.bytes);
        applyRecord("put", f.file, f.bytes);
    }
    if (!writeFileAtomic(indexLogPath(), text)) {
        warn("cache: cannot rebuild index '%s'",
             indexLogPath().c_str());
        return;
    }
    if (::stat(indexLogPath().c_str(), &st) == 0) {
        indexIno_ = static_cast<std::uint64_t>(st.st_ino);
        indexReadPos_ = static_cast<std::uint64_t>(st.st_size);
    }
    appendedSinceCompact_ = 0;
    ++stats_.indexRebuilds;
}

bool
CacheStore::compactLocked()
{
    FileLock lock(indexLockPath(), FileLock::Mode::Exclusive,
                  /*block=*/false);
    if (!lock.held())
        return false; // another process is compacting; theirs counts
    catchUp(/*haveExclusiveLock=*/true);

    std::vector<std::pair<std::string, Entry>> live(entries_.begin(),
                                                    entries_.end());
    std::sort(live.begin(), live.end(),
              [](const auto &a, const auto &b) {
                  return a.second.lastSeq < b.second.lastSeq;
              });
    std::string text;
    for (const auto &[file, e] : live)
        text += formatRecord("put", file, e.bytes);
    if (!writeFileAtomic(indexLogPath(), text)) {
        warn("cache: cannot compact index '%s'",
             indexLogPath().c_str());
        return false;
    }
    struct ::stat st{};
    if (::stat(indexLogPath().c_str(), &st) == 0) {
        indexIno_ = static_cast<std::uint64_t>(st.st_ino);
        indexReadPos_ = static_cast<std::uint64_t>(st.st_size);
    }
    appendedSinceCompact_ = 0;
    ++stats_.compactions;
    return true;
}

void
CacheStore::maybeCompact()
{
    // Compact when the log carries far more records than live
    // entries: the floor keeps small caches from churning, the ratio
    // bounds replay work for late-joining processes.
    if (appendedSinceCompact_ < 256 ||
        appendedSinceCompact_ < 4 * entries_.size())
        return;
    compactLocked();
}

std::size_t
CacheStore::evictLocked()
{
    if (!config_.maxBytes || liveBytes_ <= config_.maxBytes)
        return 0;
    std::vector<std::pair<std::string, Entry>> order(entries_.begin(),
                                                     entries_.end());
    std::sort(order.begin(), order.end(),
              [](const auto &a, const auto &b) {
                  return a.second.lastSeq < b.second.lastSeq;
              });
    std::size_t evicted = 0;
    std::error_code ec;
    for (const auto &[file, e] : order) {
        if (liveBytes_ <= config_.maxBytes)
            break;
        fs::remove(fs::path(config_.dir) / file, ec);
        appendRecord("del", file, e.bytes);
        ++evicted;
        ++stats_.evicted;
    }
    return evicted;
}

CacheStore::Load
CacheStore::load(const std::string &key, std::string &payload)
{
    std::lock_guard<std::mutex> guard(mutex_);
    ensureLoaded();
    const std::string path = entryPath(key);
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        ++stats_.misses;
        return Load::Miss;
    }
    std::stringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();

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
    const std::string headerLine = text.substr(0, nl);
    unsigned version = 0;
    char crcBuf[16] = {0};
    unsigned long long expectedLen = 0;
    if (std::sscanf(headerLine.c_str(),
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
    std::string body = text.substr(nl + 1);
    if (body.size() != expectedLen) {
        quarantinePath(path, "is truncated");
        return Load::Corrupt;
    }
    const std::uint32_t expectedCrc = static_cast<std::uint32_t>(
        std::strtoul(crcBuf, nullptr, 16));
    if (crc32(body.data(), body.size()) != expectedCrc) {
        quarantinePath(path, "fails its checksum");
        return Load::Corrupt;
    }
    payload = std::move(body);
    ++stats_.hits;
    if (config_.maxBytes) {
        // Touch for LRU, both in the index (recency) and on the file
        // (so a from-scratch rebuild preserves the ordering).
        std::error_code ec;
        fs::last_write_time(path, fs::file_time_type::clock::now(),
                            ec);
        appendRecord("touch", entryFileName(key), text.size());
    }
    return Load::Hit;
}

void
CacheStore::store(const std::string &key, const std::string &payloadIn)
{
    std::lock_guard<std::mutex> guard(mutex_);
    ensureLoaded();
    std::error_code ec;
    fs::create_directories(config_.dir, ec);
    if (ec) {
        warn("cannot create cache dir '%s': %s", config_.dir.c_str(),
             ec.message().c_str());
        return;
    }

    std::string payload = payloadIn;
    char header[64];
    std::snprintf(header, sizeof(header),
                  "{\"dmdc_cache\":%u,\"crc\":\"%08x\",\"len\":%llu}\n",
                  kCacheFormatVersion,
                  crc32(payload.data(), payload.size()),
                  static_cast<unsigned long long>(payload.size()));

    // Deterministic chaos: emit a truncated payload under the intact
    // header, exactly what a torn write or disk fault produces. The
    // next reader must quarantine and recompute.
    if (FaultInjector::global().injectCacheCorrupt(key))
        payload.resize(payload.size() / 2);

    const std::string path = entryPath(key);
    // Concurrent processes share the cache directory and must never
    // observe a torn file.
    if (!writeFileAtomic(path, header + payload)) {
        warn("cannot write cache file '%s'", path.c_str());
        return;
    }
    ++stats_.stored;
    appendRecord("put", entryFileName(key),
                 std::strlen(header) + payload.size());
    evictLocked();
    maybeCompact();
}

void
CacheStore::quarantineKey(const std::string &key, const char *reason)
{
    std::lock_guard<std::mutex> guard(mutex_);
    ensureLoaded();
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
    const std::string file = src.filename().string();
    auto it = entries_.find(file);
    if (it != entries_.end())
        appendRecord("del", file, it->second.bytes);
    enforceQuarantineCap();
}

void
CacheStore::enforceQuarantineCap()
{
    if (!config_.quarantineMaxEntries && !config_.quarantineMaxBytes)
        return;
    std::error_code ec;
    const fs::path dir = fs::path(config_.dir) / "quarantine";
    struct Found
    {
        fs::path path;
        std::uint64_t size;
        fs::file_time_type mtime;
    };
    std::vector<Found> found;
    std::uint64_t total = 0;
    for (const auto &de : fs::directory_iterator(
             dir, fs::directory_options::skip_permission_denied, ec)) {
        if (!de.is_regular_file(ec))
            continue;
        Found f{de.path(), de.file_size(ec), de.last_write_time(ec)};
        total += f.size;
        found.push_back(std::move(f));
    }
    auto over = [&](std::size_t count, std::uint64_t bytes) {
        return (config_.quarantineMaxEntries &&
                count > config_.quarantineMaxEntries) ||
               (config_.quarantineMaxBytes &&
                bytes > config_.quarantineMaxBytes);
    };
    if (!over(found.size(), total))
        return;
    // Oldest first: recent quarantines are the ones someone is likely
    // to want for a post-mortem.
    std::sort(found.begin(), found.end(),
              [](const Found &a, const Found &b) {
                  return a.mtime < b.mtime;
              });
    std::size_t count = found.size();
    for (const Found &f : found) {
        if (!over(count, total))
            break;
        if (fs::remove(f.path, ec)) {
            total -= f.size;
            --count;
            ++stats_.quarantineEvicted;
        }
    }
}

std::size_t
CacheStore::evictToCap()
{
    std::lock_guard<std::mutex> guard(mutex_);
    ensureLoaded();
    if (!config_.maxBytes)
        return 0;
    catchUp();
    return evictLocked();
}

bool
CacheStore::compact()
{
    std::lock_guard<std::mutex> guard(mutex_);
    ensureLoaded();
    return compactLocked();
}

std::uint64_t
CacheStore::liveBytes()
{
    std::lock_guard<std::mutex> guard(mutex_);
    ensureLoaded();
    catchUp();
    return liveBytes_;
}

std::size_t
CacheStore::liveEntries()
{
    std::lock_guard<std::mutex> guard(mutex_);
    ensureLoaded();
    catchUp();
    return entries_.size();
}

} // namespace dmdc
