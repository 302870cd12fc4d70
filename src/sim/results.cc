/**
 * @file
 * SimResult's persisted field table and its JSON writer/reader, and
 * the result aggregation helpers.
 */

#include "sim/results.hh"

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <type_traits>
#include <variant>

namespace dmdc
{

namespace
{

/** Where a persisted field lives. EnergyBreakdown members go in the
 *  nested "energy" object, after every SimResult member. */
using FieldMember =
    std::variant<std::string SimResult::*, bool SimResult::*,
                 unsigned SimResult::*, std::uint64_t SimResult::*,
                 double SimResult::*, double EnergyBreakdown::*>;

struct ResultField
{
    const char *name;
    FieldMember member;
};

/** Every persisted SimResult field, in cache-payload order. */
const ResultField kResultFields[] = {
    {"benchmark", &SimResult::benchmark},
    {"fp", &SimResult::fp},
    {"config_level", &SimResult::configLevel},
    {"scheme", &SimResult::scheme},
    {"instructions", &SimResult::instructions},
    {"cycles", &SimResult::cycles},
    {"ipc", &SimResult::ipc},
    {"lq_searches", &SimResult::lqSearches},
    {"lq_searches_filtered", &SimResult::lqSearchesFiltered},
    {"sq_searches", &SimResult::sqSearches},
    {"sq_searches_filtered", &SimResult::sqSearchesFiltered},
    {"age_table_replays", &SimResult::ageTableReplays},
    {"loads_older_than_all_stores", &SimResult::loadsOlderThanAllStores},
    {"committed_loads", &SimResult::committedLoads},
    {"committed_stores", &SimResult::committedStores},
    {"safe_store_frac", &SimResult::safeStoreFrac},
    {"safe_load_frac", &SimResult::safeLoadFrac},
    {"checking_cycle_frac", &SimResult::checkingCycleFrac},
    {"window_instrs", &SimResult::windowInstrs},
    {"window_loads", &SimResult::windowLoads},
    {"window_safe_loads", &SimResult::windowSafeLoads},
    {"window_single_store_frac", &SimResult::windowSingleStoreFrac},
    {"window_marked_entries", &SimResult::windowMarkedEntries},
    {"dmdc_replays", &SimResult::dmdcReplays},
    {"baseline_replays", &SimResult::baselineReplays},
    {"true_violations", &SimResult::trueViolations},
    {"true_replays", &SimResult::trueReplays},
    {"false_addr_x", &SimResult::falseAddrX},
    {"false_addr_y", &SimResult::falseAddrY},
    {"false_hash_before", &SimResult::falseHashBefore},
    {"false_hash_x", &SimResult::falseHashX},
    {"false_hash_y", &SimResult::falseHashY},
    {"false_overflow", &SimResult::falseOverflow},
    {"fetch", &EnergyBreakdown::fetch},
    {"bpred", &EnergyBreakdown::bpred},
    {"rename", &EnergyBreakdown::rename},
    {"rob", &EnergyBreakdown::rob},
    {"issue_queue", &EnergyBreakdown::issueQueue},
    {"regfile", &EnergyBreakdown::regfile},
    {"fu", &EnergyBreakdown::fu},
    {"l1d", &EnergyBreakdown::l1d},
    {"l2", &EnergyBreakdown::l2},
    {"clock", &EnergyBreakdown::clock},
    {"lq_cam", &EnergyBreakdown::lqCam},
    {"sq", &EnergyBreakdown::sq},
    {"yla", &EnergyBreakdown::yla},
    {"checking", &EnergyBreakdown::checking},
};

template <typename R, typename T>
auto &
fieldOf(R &r, T SimResult::*m)
{
    return r.*m;
}

template <typename R>
auto &
fieldOf(R &r, double EnergyBreakdown::*m)
{
    return r.energy.*m;
}

bool
isEnergyField(const ResultField &f)
{
    return std::holds_alternative<double EnergyBreakdown::*>(f.member);
}

template <typename T>
void
writeValue(std::ostream &os, const T &v)
{
    if constexpr (std::is_same_v<T, std::string>)
        os << '"' << jsonEscapeString(v) << '"';
    else if constexpr (std::is_same_v<T, bool>)
        os << (v ? "true" : "false");
    else if constexpr (std::is_same_v<T, double>)
        os << doubleToken(v);
    else
        os << v;
}

/** False when @p v has the wrong JSON type or a malformed number. */
template <typename T>
bool
readValue(const JsonValue &v, T &out)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out = v.text;
        return v.kind == JsonValue::Kind::String;
    } else if constexpr (std::is_same_v<T, bool>) {
        out = v.boolean;
        return v.kind == JsonValue::Kind::Bool;
    } else {
        char *end = nullptr;
        if constexpr (std::is_same_v<T, double>)
            out = std::strtod(v.text.c_str(), &end);
        else
            out = static_cast<T>(std::strtoull(v.text.c_str(), &end, 10));
        return v.kind == JsonValue::Kind::Number && *end == '\0';
    }
}

} // namespace

void
writeSimResultJson(std::ostream &os, const SimResult &r)
{
    os << '{';
    const char *sep = "";
    bool inEnergy = false;
    for (const ResultField &f : kResultFields) {
        if (isEnergyField(f) && !inEnergy) {
            os << sep << "\"energy\":{";
            sep = "";
            inEnergy = true;
        }
        os << sep << '"' << f.name << "\":";
        sep = ",";
        std::visit([&](auto m) { writeValue(os, fieldOf(r, m)); },
                   f.member);
    }
    os << (inEnergy ? "}}" : "}");
}

bool
readSimResultJson(const JsonValue &obj, SimResult &r)
{
    if (obj.kind != JsonValue::Kind::Object)
        return false;
    const JsonValue *energy = obj.find("energy");
    for (const ResultField &f : kResultFields) {
        const JsonValue *scope = isEnergyField(f) ? energy : &obj;
        const JsonValue *v = scope ? scope->find(f.name) : nullptr;
        if (!v || !std::visit(
                [&](auto m) { return readValue(*v, fieldOf(r, m)); },
                f.member))
            return false;
    }
    return true;
}

Range
makeRange(const std::vector<double> &values)
{
    Range r;
    r.n = values.size();
    if (values.empty())
        return r;
    r.min = *std::min_element(values.begin(), values.end());
    r.max = *std::max_element(values.begin(), values.end());
    double sum = 0;
    for (double v : values)
        sum += v;
    r.mean = sum / static_cast<double>(values.size());
    return r;
}

const SimResult *
findValidResult(const std::vector<SimResult> &results,
                const std::string &benchmark)
{
    for (const SimResult &r : results) {
        if (r.valid && r.benchmark == benchmark)
            return &r;
    }
    return nullptr;
}

} // namespace dmdc
