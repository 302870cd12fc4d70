/**
 * @file
 * The `.dmdc_cache/` storage engine.
 *
 * Before this layer the on-disk run cache was a flat directory that
 * every lookup trusted blindly and every eviction pass re-scanned in
 * full. CacheStore keeps the crash-safe per-entry layout (one
 * CRC-framed JSON file per key, published with an atomic rename,
 * quarantined when damaged) and adds a real index on top:
 *
 *  - an append-only log (`index.log`) of self-validating records
 *    ({"v":1,"op":"put|touch|del","file":...,"bytes":...,"crc":...})
 *    written under a shared flock so concurrent processes interleave
 *    whole records, never bytes;
 *  - in-memory running totals (live entries, live bytes, LRU order by
 *    record sequence) replayed from the log once at open — `--cache-
 *    max-mb` eviction is an O(live) walk of the in-memory state with
 *    zero directory iteration; the directory is scanned only when the
 *    index is missing or damaged (rebuild);
 *  - lock-file-coordinated compaction: when the log accumulates many
 *    dead records, the holder of the exclusive lock rewrites it as one
 *    `put` per live entry and renames it into place. Readers detect
 *    the swap by inode change and replay the fresh log; appenders are
 *    excluded by the lock for the (sub-millisecond) rewrite, so no
 *    record is ever lost to a renamed-away file.
 *
 * Content reads never trust the index: load() always opens the entry
 * file and verifies its CRC frame, so a process can share the
 * directory with writers it has never synchronized with (the index
 * self-heals by appending the records it was missing). That is what
 * makes one warm cache safely shareable by shard workers and bench
 * binaries at the same time.
 *
 * Cross-process dedup: an advisory claim file per key
 * (`<hash>.claim`, holding "<pid> <host>") tells concurrent campaigns
 * on one directory that a key is being simulated, so each key is
 * simulated once:
 *
 *  - claim() creates the file with O_CREAT|O_EXCL (no fsync: it is a
 *    hint, not durable state). The winner re-probes the cache, since
 *    another process may have published the entry in the meantime,
 *    and otherwise simulates, store()s, and releaseClaim()s — also on
 *    failure, timeout or skip;
 *  - a claim held by a live process on this host reports Held: the
 *    caller defers the run and polls later, until the entry appears
 *    or the claim goes away;
 *  - a claim is stale when kill(pid, 0) reports ESRCH, when it
 *    carries this process's own pid (a process never waits on itself;
 *    the leftover of an earlier process with the same pid), or when it
 *    is unreadable. Stale claims are taken over by rename + unlink;
 *  - a claim from another host is ignored (Unclaimed): --shard is the
 *    multi-host path, and shards never contend for a key.
 *
 * Claims are never `*.json`, so index rebuilds and quarantine never
 * see them. A lost race costs at most one duplicate simulation, never
 * a wrong result: entries are still published atomically.
 */

#ifndef DMDC_SIM_CACHE_STORE_HH
#define DMDC_SIM_CACHE_STORE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace dmdc
{

/**
 * On-disk run-cache format version. Bump when the key schema or the
 * entry JSON layout changes; mismatched entries quarantine and
 * recompute. v3: entries carry a CRC32 header line.
 */
constexpr unsigned kCacheFormatVersion = 3;

/** Index log record schema version (independent of the entry format:
 *  an index rebuild is cheap, a cache flush is not). */
constexpr unsigned kCacheIndexVersion = 1;

/** Knobs of one CacheStore (a strict subset of CampaignConfig). */
struct CacheStoreConfig
{
    /** Directory holding entries, claims, index.log, and quarantine/.
     *  Nothing is created until the first claim, store or quarantine. */
    std::string dir = ".dmdc_cache";

    /** Live-entry byte cap; LRU entries are evicted past it.
     *  0 = unlimited (and hits skip the recency bookkeeping). */
    std::uint64_t maxBytes = 0;

    /** Caps on quarantine/ (oldest files age out first; 0 = none). */
    std::size_t quarantineMaxEntries = 32;
    std::uint64_t quarantineMaxBytes = 8ull * 1024 * 1024;
};

/** Monotonic operation counters (lifetime of this store instance). */
struct CacheStoreStats
{
    std::size_t hits = 0;        ///< frame-verified entry reads
    std::size_t misses = 0;      ///< absent entries
    std::size_t stored = 0;      ///< entries published
    std::size_t quarantined = 0; ///< damaged entries set aside
    std::size_t evicted = 0;     ///< entries removed by the byte cap
    std::size_t quarantineEvicted = 0; ///< quarantine files aged out
    std::size_t indexRebuilds = 0;     ///< full directory scans
    std::size_t compactions = 0;       ///< index log rewrites
};

/**
 * One shared-directory cache store. Thread-safe: campaign workers
 * store concurrently, and any number of processes may point a store
 * at the same directory.
 */
class CacheStore
{
  public:
    explicit CacheStore(CacheStoreConfig config);

    /** Outcome of a load() probe. */
    enum class Load
    {
        Hit,    ///< @p payload holds the verified entry body
        Miss,   ///< no entry on disk
        Corrupt ///< entry was damaged; quarantined and forgotten
    };

    /**
     * Probe @p key. On Hit, @p payload receives the entry body (the
     * bytes that were stored), already CRC- and length-verified.
     * Callers still own payload-level validation (key match, schema);
     * use quarantineKey() when that deeper check fails.
     */
    Load load(const std::string &key, std::string &payload);

    /**
     * Publish @p payload under @p key: CRC-framed, written atomically,
     * recorded in the index. Evicts LRU entries when the byte cap is
     * exceeded and compacts the index log when it has grown stale.
     */
    void store(const std::string &key, const std::string &payload);

    /** Quarantine the entry of @p key (payload-level corruption found
     *  by the caller after a frame-valid load). */
    void quarantineKey(const std::string &key, const char *reason);

    /**
     * Evict least-recently-used entries until live bytes fit the cap.
     * Pure in-memory walk over the index (after catching up on other
     * processes' appends); never iterates the directory. Returns the
     * number of entries removed.
     */
    std::size_t evictToCap();

    /** Force an index compaction (normally automatic). False when
     *  another process holds the compaction lock. */
    bool compact();

    /** Outcome of a claim() attempt. */
    enum class Claim
    {
        Won,      ///< this process holds the claim; releaseClaim() it
        Held,     ///< a live process on this host holds it; retry later
        Unclaimed ///< another host's claim, or none can be made: proceed
    };

    /** Try to claim @p key for simulation (see the file comment). */
    Claim claim(const std::string &key);

    /** Remove this process's claim on @p key, if it still holds it. */
    void releaseClaim(const std::string &key);

    /** Running totals from the index (catching up first). */
    std::uint64_t liveBytes();
    std::size_t liveEntries();

    const CacheStoreStats &stats() const { return stats_; }
    const CacheStoreConfig &config() const { return config_; }

    /** Entry file path of @p key (hash-named inside dir). */
    std::string entryPath(const std::string &key) const;

    /** Claim file path of @p key (the entry path's `.claim` twin). */
    std::string claimPath(const std::string &key) const;

  private:
    struct Entry
    {
        std::uint64_t bytes = 0;
        std::uint64_t lastSeq = 0; ///< recency: larger = more recent
    };

    // All private helpers assume mutex_ is held.
    void ensureLoaded();
    void replayIndex();
    void applyRecord(const std::string &op, const std::string &file,
                     std::uint64_t bytes);
    void appendRecord(const char *op, const std::string &file,
                      std::uint64_t bytes);
    void catchUp(bool haveExclusiveLock = false);
    void rebuildIndex();
    bool compactLocked();
    void maybeCompact();
    std::size_t evictLocked();
    void quarantinePath(const std::string &path, const char *reason);
    void enforceQuarantineCap();
    std::string indexLogPath() const;
    std::string indexLockPath() const;

    CacheStoreConfig config_;
    CacheStoreStats stats_;

    std::mutex mutex_;
    bool loaded_ = false;
    std::unordered_map<std::string, Entry> entries_; ///< by file name
    std::uint64_t liveBytes_ = 0;
    std::uint64_t seq_ = 0;          ///< records applied so far
    std::uint64_t appendedSinceCompact_ = 0;
    std::uint64_t indexReadPos_ = 0; ///< bytes of index.log consumed
    std::uint64_t indexIno_ = 0;     ///< inode of the replayed log
};

} // namespace dmdc

#endif // DMDC_SIM_CACHE_STORE_HH
