#include "sim/campaign_shard.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/json.hh"
#include "common/random.hh"

namespace dmdc
{

std::string
journalIdentity(const std::string &benchmark, const std::string &scheme,
                unsigned config)
{
    std::string id = benchmark;
    id += '|';
    id += scheme;
    id += '|';
    id += std::to_string(config);
    return id;
}

namespace
{

/** The journals' lossy string escaper: quotes and backslashes are
 *  escaped, control characters become spaces (journal bytes are
 *  contractual, so this never changes). */
std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out.push_back(' ');
        } else {
            out.push_back(c);
        }
    }
    return out;
}

} // namespace

// ---- shard spec ------------------------------------------------------

bool
parseShardSpec(const std::string &text, ShardSpec &out, std::string &err)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size()) {
        err = "expected --shard=i/N (e.g. 0/2), got '" + text + "'";
        return false;
    }
    const std::string idx = text.substr(0, slash);
    const std::string cnt = text.substr(slash + 1);
    for (const std::string &part : {idx, cnt}) {
        if (part.empty() ||
            !std::all_of(part.begin(), part.end(), [](unsigned char c) {
                return std::isdigit(c) != 0;
            })) {
            err = "shard spec '" + text + "' is not of the form i/N";
            return false;
        }
        if (part.size() > 6) {
            err = "shard spec '" + text + "' is out of range";
            return false;
        }
    }
    const unsigned long i = std::stoul(idx);
    const unsigned long n = std::stoul(cnt);
    if (n == 0) {
        err = "shard count must be >= 1";
        return false;
    }
    if (i >= n) {
        err = "shard index " + idx + " out of range for " + cnt +
              " shards (indices are 0-based)";
        return false;
    }
    out.index = static_cast<unsigned>(i);
    out.count = static_cast<unsigned>(n);
    return true;
}

std::string
shardSpecName(const ShardSpec &spec)
{
    return std::to_string(spec.index) + '/' + std::to_string(spec.count);
}

std::string
runIdentity(const SimOptions &opt)
{
    std::ostringstream os;
    os << "bench=" << opt.benchmark
       << "|config=" << opt.configLevel
       << "|scheme=" << opt.scheme
       << "|warmup=" << opt.warmupInsts
       << "|insts=" << opt.runInsts
       << "|inv=" << doubleToken(opt.invalidationsPer1kCycles)
       << "|coherence=" << opt.coherence
       << "|safe_loads=" << opt.safeLoads
       << "|sq_filter=" << opt.sqFilter
       << "|yla_qw=" << opt.numYlaQw
       << "|table=" << opt.tableEntriesOverride
       << "|queue=" << opt.queueEntries;
    if (!opt.observers.empty() || opt.tweak)
        os << "|custom=1";
    return os.str();
}

std::string
campaignFingerprint(const std::vector<SimOptions> &runs)
{
    std::uint64_t h = 0;
    for (const SimOptions &opt : runs) {
        const std::string id = runIdentity(opt);
        h = hashBytes(id.data(), id.size(), h);
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// ---- partition -------------------------------------------------------

LptItem
lptItem(const SimOptions &opt)
{
    LptItem item;
    item.cost = static_cast<double>(opt.warmupInsts) +
                static_cast<double>(opt.runInsts);
    item.identity =
        journalIdentity(opt.benchmark, opt.scheme, opt.configLevel);
    item.hash = hashBytes(item.identity.data(), item.identity.size());
    return item;
}

bool
lptBefore(const LptItem &a, const LptItem &b)
{
    return std::tie(b.cost, a.hash, a.identity) <
           std::tie(a.cost, b.hash, b.identity);
}

namespace
{

/** Runs sharing one journal identity; item.cost sums their budgets. */
struct RunGroup
{
    LptItem item;
    std::vector<std::size_t> members; ///< indices into the run list
};

/** Group @p runs by journal identity, in order of first appearance. */
std::vector<RunGroup>
groupRunsByIdentity(const std::vector<SimOptions> &runs)
{
    std::vector<RunGroup> groups;
    std::unordered_map<std::string, std::size_t> byKey;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        LptItem run = lptItem(runs[i]);
        auto [it, fresh] = byKey.try_emplace(run.identity, groups.size());
        if (fresh)
            groups.push_back({std::move(run), {}});
        else
            groups[it->second].item.cost += run.cost;
        groups[it->second].members.push_back(i);
    }
    return groups;
}

/** LPT greedy: groups in lptBefore() order, each placed on the
 *  least-loaded of @p bins. Returns one bin per group. */
std::vector<unsigned>
lptAssignGroups(const std::vector<RunGroup> &groups, unsigned bins)
{
    std::vector<std::size_t> order(groups.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return lptBefore(groups[a].item, groups[b].item);
              });
    std::vector<double> load(bins, 0.0);
    std::vector<unsigned> assignment(groups.size(), 0);
    for (std::size_t idx : order) {
        std::size_t target = 0;
        for (std::size_t s = 1; s < load.size(); ++s) {
            if (load[s] < load[target])
                target = s;
        }
        load[target] += groups[idx].item.cost;
        assignment[idx] = static_cast<unsigned>(target);
    }
    return assignment;
}

} // namespace

std::vector<unsigned>
shardAssignment(const std::vector<SimOptions> &runs, unsigned shardCount)
{
    std::vector<unsigned> assignment(runs.size(), 0);
    if (shardCount <= 1 || runs.empty())
        return assignment;

    // Group by journal identity so repeated (benchmark, scheme,
    // config) triples — legal within one campaign — can never be split
    // across shards, which would break the merger's disjointness
    // invariant.
    const std::vector<RunGroup> groups = groupRunsByIdentity(runs);
    const std::vector<unsigned> bins =
        lptAssignGroups(groups, shardCount);
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (std::size_t member : groups[g].members)
            assignment[member] = bins[g];
    }
    return assignment;
}

// ---- journal model ---------------------------------------------------

bool
journalEntryLess(const JournalEntry &a, const JournalEntry &b)
{
    // The value tokens break ties between runs that share a journal
    // identity but differ in hidden knobs (e.g. an invalidation-rate
    // sweep): without them their order would follow completion order.
    return std::tie(a.benchmark, a.scheme, a.config, a.status, a.error,
                    a.cyclesToken, a.ipcToken) <
           std::tie(b.benchmark, b.scheme, b.config, b.status, b.error,
                    b.cyclesToken, b.ipcToken);
}

void
writeJournalEntry(std::ostream &os, const JournalEntry &e,
                  const std::string &extra)
{
    os << "\n  {\"benchmark\":\"" << e.benchmark
       << "\",\"scheme\":\"" << e.scheme
       << "\",\"config\":" << e.config
       << ",\"status\":\"" << runStatusName(e.status) << '"';
    if (e.status == RunStatus::Ok) {
        os << ",\"ipc\":" << e.ipcToken
           << ",\"cycles\":" << e.cyclesToken;
    } else {
        os << ",\"category\":\"" << escapeJson(e.category)
           << "\",\"error\":\"" << escapeJson(e.error) << '"';
    }
    os << extra << '}';
}

// ---- JSON parsing ----------------------------------------------------

namespace
{

bool
numberField(const JsonValue &obj, const char *key, std::uint64_t &out,
            std::string &err)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind != JsonValue::Kind::Number) {
        err = std::string("journal header missing numeric '") + key +
              "' field";
        return false;
    }
    try {
        out = std::stoull(v->text);
    } catch (const std::exception &) {
        err = std::string("journal '") + key + "' is not an integer";
        return false;
    }
    return true;
}

} // namespace

bool
parseShardJournal(const std::string &text, ShardJournal &out,
                  std::string &err)
{
    out = ShardJournal{};
    JsonValue root;
    if (!parseJson(text, root, err))
        return false;
    if (root.kind != JsonValue::Kind::Object) {
        err = "journal is not a JSON object";
        return false;
    }

    std::uint64_t version = 0;
    if (!numberField(root, "version", version, err))
        return false;
    out.version = static_cast<unsigned>(version);
    const JsonValue *commit = root.find("commit");
    if (!commit || commit->kind != JsonValue::Kind::String) {
        err = "journal header missing 'commit' field";
        return false;
    }
    out.commit = commit->text;

    const JsonValue *campaign = root.find("campaign");
    const bool hasIndex = root.find("shard_index") != nullptr;
    const bool hasCount = root.find("shard_count") != nullptr;
    const bool hasTotal = root.find("runs_total") != nullptr;
    if (campaign || hasIndex || hasCount || hasTotal) {
        if (!campaign || campaign->kind != JsonValue::Kind::String ||
            !hasIndex || !hasCount || !hasTotal) {
            err = "journal has a partial shard header (need campaign, "
                  "shard_index, shard_count, runs_total)";
            return false;
        }
        std::uint64_t index = 0, count = 0;
        if (!numberField(root, "shard_index", index, err) ||
            !numberField(root, "shard_count", count, err) ||
            !numberField(root, "runs_total", out.runsTotal, err))
            return false;
        if (count == 0 || index >= count) {
            err = "journal shard_index/shard_count out of range";
            return false;
        }
        out.sharded = true;
        out.campaign = campaign->text;
        out.shardIndex = static_cast<unsigned>(index);
        out.shardCount = static_cast<unsigned>(count);
    }

    const JsonValue *results = root.find("results");
    if (!results || results->kind != JsonValue::Kind::Array) {
        err = "journal has no 'results' array";
        return false;
    }
    out.entries.reserve(results->items.size());
    for (const JsonValue &item : results->items) {
        if (item.kind != JsonValue::Kind::Object) {
            err = "journal 'results' element is not an object";
            return false;
        }
        JournalEntry e;
        const JsonValue *benchmark = item.find("benchmark");
        const JsonValue *scheme = item.find("scheme");
        const JsonValue *config = item.find("config");
        const JsonValue *status = item.find("status");
        if (!benchmark || benchmark->kind != JsonValue::Kind::String ||
            !scheme || scheme->kind != JsonValue::Kind::String ||
            !config || config->kind != JsonValue::Kind::Number ||
            !status || status->kind != JsonValue::Kind::String) {
            err = "journal record missing benchmark/scheme/config/"
                  "status";
            return false;
        }
        e.benchmark = benchmark->text;
        e.scheme = scheme->text;
        std::uint64_t cfg = 0;
        if (!numberField(item, "config", cfg, err))
            return false;
        e.config = static_cast<unsigned>(cfg);
        if (!parseRunStatus(status->text, e.status)) {
            err = "journal record has unknown status '" + status->text +
                  "'";
            return false;
        }
        if (e.status == RunStatus::Ok) {
            const JsonValue *ipc = item.find("ipc");
            const JsonValue *cycles = item.find("cycles");
            if (!ipc || ipc->kind != JsonValue::Kind::Number ||
                !cycles || cycles->kind != JsonValue::Kind::Number) {
                err = "ok journal record missing ipc/cycles";
                return false;
            }
            e.ipcToken = ipc->text;
            e.cyclesToken = cycles->text;
        } else {
            const JsonValue *category = item.find("category");
            const JsonValue *error = item.find("error");
            if (!category ||
                category->kind != JsonValue::Kind::String || !error ||
                error->kind != JsonValue::Kind::String) {
                err = "failure journal record missing category/error";
                return false;
            }
            e.category = category->text;
            e.error = error->text;
        }
        out.entries.push_back(std::move(e));
    }
    return true;
}

bool
loadShardJournal(const std::string &path, ShardJournal &out,
                 std::string &err)
{
    std::ifstream is(path);
    if (!is) {
        err = "cannot open journal '" + path + "'";
        return false;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    if (!parseShardJournal(ss.str(), out, err)) {
        err = path + ": " + err;
        return false;
    }
    return true;
}

// ---- merging ---------------------------------------------------------

bool
mergeShardJournals(const std::vector<ShardJournal> &shards,
                   ShardJournal &out, std::string &err)
{
    out = ShardJournal{};
    if (shards.empty()) {
        err = "no shard journals to merge";
        return false;
    }
    const ShardJournal &first = shards.front();
    if (!first.sharded) {
        err = "journal 0 has no shard header (not a --shard journal)";
        return false;
    }
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const ShardJournal &s = shards[i];
        if (!s.sharded) {
            err = "journal " + std::to_string(i) +
                  " has no shard header (not a --shard journal)";
            return false;
        }
        if (s.version != first.version) {
            err = "journal " + std::to_string(i) +
                  " has a different format version";
            return false;
        }
        if (s.commit != first.commit) {
            err = "journal " + std::to_string(i) +
                  " was produced by a different build (commit '" +
                  s.commit + "' vs '" + first.commit + "')";
            return false;
        }
        if (s.campaign != first.campaign) {
            err = "journal " + std::to_string(i) +
                  " belongs to a foreign campaign (fingerprint '" +
                  s.campaign + "' vs '" + first.campaign + "')";
            return false;
        }
        if (s.shardCount != first.shardCount ||
            s.runsTotal != first.runsTotal) {
            err = "journal " + std::to_string(i) +
                  " disagrees on shard count or campaign run total";
            return false;
        }
    }
    // Name the offender: "have 2 of 3 journals" sends the user
    // hunting; "missing shard 1/3" tells them which worker's output
    // to look for.
    std::vector<bool> seen(first.shardCount, false);
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const ShardJournal &s = shards[i];
        if (seen[s.shardIndex]) {
            err = "duplicate journal for shard " +
                  std::to_string(s.shardIndex) + "/" +
                  std::to_string(first.shardCount) +
                  " (journal " + std::to_string(i) +
                  " repeats an earlier slice)";
            return false;
        }
        seen[s.shardIndex] = true;
    }
    if (shards.size() != first.shardCount) {
        std::string missing;
        for (unsigned i = 0; i < first.shardCount; ++i) {
            if (!seen[i]) {
                if (!missing.empty())
                    missing += ", ";
                missing += std::to_string(i) + "/" +
                           std::to_string(first.shardCount);
            }
        }
        err = "incomplete shard set: have " +
              std::to_string(shards.size()) + " of " +
              std::to_string(first.shardCount) +
              " journals; missing shard " + missing;
        return false;
    }

    // Journal identities must be disjoint across shards: the
    // partitioner co-locates equal (benchmark, scheme, config)
    // triples, so any cross-shard repeat means the inputs mix
    // different campaigns or a shard ran the wrong slice.
    std::unordered_map<std::string, unsigned> owner;
    std::size_t records = 0;
    for (const ShardJournal &s : shards) {
        records += s.entries.size();
        for (const JournalEntry &e : s.entries) {
            const std::string id =
                journalIdentity(e.benchmark, e.scheme, e.config);
            auto it = owner.find(id);
            if (it != owner.end() && it->second != s.shardIndex) {
                err = "run " + id + " appears in both shard " +
                      std::to_string(it->second) + " and shard " +
                      std::to_string(s.shardIndex) +
                      " (overlapping slices)";
                return false;
            }
            owner.emplace(id, s.shardIndex);
        }
    }
    if (records != first.runsTotal) {
        // Per-shard breakdown so the short slice is identifiable at a
        // glance (a crashed worker's partial journal shows up here).
        std::string breakdown;
        for (const ShardJournal &s : shards) {
            if (!breakdown.empty())
                breakdown += ", ";
            breakdown += "shard " + std::to_string(s.shardIndex) +
                         ": " + std::to_string(s.entries.size());
        }
        err = "shard journals hold " + std::to_string(records) +
              " records, campaign expects " +
              std::to_string(first.runsTotal) +
              " (incomplete or over-complete slice union; " +
              breakdown + ")";
        return false;
    }

    out.version = first.version;
    out.commit = first.commit;
    for (const ShardJournal &s : shards) {
        out.entries.insert(out.entries.end(), s.entries.begin(),
                           s.entries.end());
    }
    std::sort(out.entries.begin(), out.entries.end(), journalEntryLess);
    return true;
}

void
writeMergedJournal(std::ostream &os, const ShardJournal &journal)
{
    std::vector<JournalEntry> entries = journal.entries;
    std::sort(entries.begin(), entries.end(), journalEntryLess);
    os << "{\"version\":" << journal.version
       << ",\"commit\":\"" << journal.commit << '"'
       << ",\"results\":[";
    bool first = true;
    for (const JournalEntry &e : entries) {
        if (!first)
            os << ',';
        first = false;
        writeJournalEntry(os, e);
    }
    os << "\n]}\n";
}

} // namespace dmdc
