/**
 * @file
 * The `.dmdc_cache/` storage engine.
 *
 * One CRC-framed JSON file per key (`<hash>.json`), published with an
 * atomic rename and quarantined when damaged. There is no index: the
 * directory is the only state, so any number of processes can share
 * it without coordinating.
 *
 *  - load() always opens the entry file and verifies its CRC frame;
 *    nothing it returns rests on another process's bookkeeping. It
 *    reads the file with one open/fstat/read into one buffer, parses
 *    the header line and CRCs the body in that buffer, and hands the
 *    body over without a second copy;
 *  - store() and load() never list the directory, and nothing is
 *    ever evicted: an entry is ~1.3 KB, so a whole reproduction is
 *    ~1 MB per source revision. Delete the directory to reclaim it.
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
 *  - a claim from another host is ignored (Unclaimed): its pid
 *    cannot be checked from here. So claims give no cross-host
 *    dedup: hosts sharing one directory over a network filesystem
 *    all write correct, identical entries, but may each simulate the
 *    same key.
 *
 * Claims are never `*.json`, so liveEntries() and quarantine never
 * see them. A lost race costs at most one duplicate simulation, never
 * a wrong result: entries are still published atomically.
 */

#ifndef DMDC_SIM_CACHE_STORE_HH
#define DMDC_SIM_CACHE_STORE_HH

#include <cstdint>
#include <mutex>
#include <string>

namespace dmdc
{

/**
 * On-disk run-cache format version. Bump when the key schema or the
 * entry JSON layout changes; mismatched entries quarantine and
 * recompute. v3: entries carry a CRC32 header line.
 */
constexpr unsigned kCacheFormatVersion = 3;

/** Knobs of one CacheStore. A CampaignRunner sets only dir and keeps
 *  the default quarantine caps. */
struct CacheStoreConfig
{
    /** Directory holding entries, claims and quarantine/.
     *  Nothing is created until the first claim, store or quarantine. */
    std::string dir = ".dmdc_cache";

    /**
     * Caps on quarantine/: corrupt entries are set aside there for
     * post-mortems, but chaos campaigns would grow it without bound.
     * Oldest files age out first once either cap is exceeded;
     * 0 = none.
     */
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
    std::size_t quarantineEvicted = 0; ///< quarantine files aged out
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

    /** Publish @p payload under @p key: CRC-framed, written
     *  atomically. */
    void store(const std::string &key, const std::string &payload);

    /** Quarantine the entry of @p key (payload-level corruption found
     *  by the caller after a frame-valid load). */
    void quarantineKey(const std::string &key, const char *reason);

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

    /** Number of `*.json` entry names in the directory (no stat). */
    std::size_t liveEntries() const;

    const CacheStoreStats &stats() const { return stats_; }
    const CacheStoreConfig &config() const { return config_; }

    /** Entry file path of @p key (hash-named inside dir). */
    std::string entryPath(const std::string &key) const;

    /** Claim file path of @p key (the entry path's `.claim` twin). */
    std::string claimPath(const std::string &key) const;

  private:
    // All private helpers assume mutex_ is held.
    void quarantinePath(const std::string &path, const char *reason);
    void enforceQuarantineCap();

    CacheStoreConfig config_;
    CacheStoreStats stats_;

    std::mutex mutex_; ///< guards stats_ and the quarantine
};

} // namespace dmdc

#endif // DMDC_SIM_CACHE_STORE_HH
