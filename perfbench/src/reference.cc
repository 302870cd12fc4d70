/**
 * @file
 * Reference table I/O and comparison.
 */

#include "reference.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench
{

namespace
{

constexpr std::size_t kKeyColumns = 5;

std::vector<std::string>
splitTabs(const std::string &line)
{
    std::vector<std::string> out;
    std::string field;
    std::istringstream in(line);
    while (std::getline(in, field, '\t'))
        out.push_back(field);
    return out;
}

} // namespace

std::string
runKey(const dmdc::SimOptions &opt)
{
    return opt.benchmark + "|" + std::to_string(opt.configLevel) + "|" +
           opt.scheme + "|" + std::to_string(opt.warmupInsts) + "|" +
           std::to_string(opt.runInsts);
}

std::vector<std::string>
pinnedValues(const dmdc::SimResult &r, std::uint64_t warmup_committed)
{
    char energy[64];
    std::snprintf(energy, sizeof(energy), "%.17g",
                  r.energy.lqFunction());
    return {std::to_string(warmup_committed),
            std::to_string(r.instructions),
            std::to_string(r.cycles),
            std::to_string(r.dmdcReplays),
            std::to_string(r.baselineReplays),
            std::to_string(r.ageTableReplays),
            std::to_string(r.trueReplays),
            std::to_string(r.falseAddrX),
            std::to_string(r.falseAddrY),
            std::to_string(r.falseHashBefore),
            std::to_string(r.falseHashX),
            std::to_string(r.falseHashY),
            std::to_string(r.falseOverflow),
            energy};
}

const std::vector<std::string> &
ReferenceTable::valueColumns()
{
    static const std::vector<std::string> cols = {
        "warmup_committed", "committed",       "cycles",
        "replays_dmdc",     "replays_baseline", "replays_age_table",
        "replays_true",     "false_addr_x",    "false_addr_y",
        "false_hash_before", "false_hash_x",   "false_hash_y",
        "false_overflow",   "lq_energy"};
    return cols;
}

bool
ReferenceTable::load(const std::string &path, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open reference table " + path;
        return false;
    }
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> f = splitTabs(line);
        if (f.size() != kKeyColumns + valueColumns().size()) {
            err = path + ":" + std::to_string(lineno) + ": expected " +
                  std::to_string(kKeyColumns + valueColumns().size()) +
                  " columns";
            return false;
        }
        const std::string key =
            f[0] + "|" + f[1] + "|" + f[2] + "|" + f[3] + "|" + f[4];
        rows_[key].assign(f.begin() + kKeyColumns, f.end());
    }
    return true;
}

void
ReferenceTable::add(const dmdc::SimOptions &opt,
                    const std::vector<std::string> &values)
{
    rows_[runKey(opt)] = values;
}

std::string
ReferenceTable::format() const
{
    std::string out = "# benchmark\tconfig\tscheme\twarmup\trun";
    for (const std::string &c : valueColumns())
        out += "\t" + c;
    out += "\n";
    for (const auto &[key, values] : rows_) {
        std::string row = key;
        for (char &ch : row) {
            if (ch == '|')
                ch = '\t';
        }
        for (const std::string &v : values)
            row += "\t" + v;
        out += row + "\n";
    }
    return out;
}

std::string
ReferenceTable::check(const dmdc::SimOptions &opt,
                      const dmdc::SimResult &r) const
{
    const std::string key = runKey(opt);
    auto it = rows_.find(key);
    if (it == rows_.end())
        return key + ": no reference row";
    // Column 0 (warm-up committed) is not part of a SimResult.
    const std::vector<std::string> got = pinnedValues(r, 0);
    for (std::size_t c = 1; c < got.size(); ++c) {
        if (got[c] != it->second[c])
            return key + ": " + valueColumns()[c] + " is " + got[c] +
                   ", reference " + it->second[c];
    }
    return "";
}

std::uint64_t
ReferenceTable::totalCommitted(const dmdc::SimOptions &opt) const
{
    auto it = rows_.find(runKey(opt));
    if (it == rows_.end())
        return 0;
    return std::stoull(it->second[0]) + std::stoull(it->second[1]);
}

} // namespace perfbench
