/**
 * @file
 * Fault-injection spec parsing and deterministic decisions.
 */

#include "sim/fault_injector.hh"

#include <cmath>
#include <cstdlib>

#include "common/logging.hh"
#include "common/random.hh"
#include "sim/run_error.hh"

namespace dmdc
{

namespace
{

/** One "site:p=0.1" item; returns false if @p item is not site-shaped. */
bool
applyItem(FaultSpec &spec, const std::string &item, std::string &err)
{
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
        // Allow a bare "seed=<n>" item.
        if (item.rfind("seed=", 0) == 0) {
            char *end = nullptr;
            spec.seed = std::strtoull(item.c_str() + 5, &end, 0);
            if (*end != '\0') {
                err = "bad seed value in '" + item + "'";
                return false;
            }
            return true;
        }
        err = "expected '<site>:p=<prob>' or 'seed=<n>', got '" +
            item + "'";
        return false;
    }
    const std::string site = item.substr(0, colon);
    const std::string param = item.substr(colon + 1);
    if (param.rfind("p=", 0) != 0) {
        err = "expected 'p=<prob>' after '" + site + ":'";
        return false;
    }
    char *end = nullptr;
    const double p = std::strtod(param.c_str() + 2, &end);
    if (*end != '\0' || !std::isfinite(p) || p < 0.0 || p > 1.0) {
        err = "probability in '" + item + "' must be in [0, 1]";
        return false;
    }
    if (site == "cache-corrupt")
        spec.cacheCorruptP = p;
    else if (site == "run-throw")
        spec.runThrowP = p;
    else if (site == "run-hang")
        spec.runHangP = p;
    else if (site == "worker-crash")
        spec.workerCrashP = p;
    else if (site == "lsq-corrupt")
        spec.lsqCorruptP = p;
    else {
        err = "unknown fault site '" + site +
            "' (sites: cache-corrupt, run-throw, run-hang, "
            "worker-crash, lsq-corrupt)";
        return false;
    }
    return true;
}

} // namespace

FaultSpec
parseFaultSpec(const std::string &text)
{
    FaultSpec spec;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string item = text.substr(start, comma - start);
        if (!item.empty()) {
            std::string err;
            if (!applyItem(spec, item, err))
                throw RunError(RunErrorCategory::Config,
                               "DMDC_FAULT: " + err);
        }
        start = comma + 1;
    }
    return spec;
}

FaultInjector &
FaultInjector::global()
{
    static FaultInjector injector = [] {
        FaultInjector inj;
        if (const char *env = std::getenv("DMDC_FAULT")) {
            try {
                inj.configure(parseFaultSpec(env));
            } catch (const RunError &e) {
                fatal("%s", e.what());
            }
            if (inj.enabled()) {
                warn("fault injection active: DMDC_FAULT=%s", env);
            }
        }
        return inj;
    }();
    return injector;
}

bool
FaultInjector::decide(const char *site, const std::string &key,
                      unsigned attempt, double p) const
{
    if (p <= 0.0)
        return false;
    // A fresh Rng per decision, seeded from (seed, site, key,
    // attempt): deterministic regardless of worker scheduling, and
    // distinct attempts of one run draw independent outcomes so a
    // retry can clear an injected transient fault.
    std::uint64_t h = hashBytes(key.data(), key.size(), spec_.seed);
    h = hashBytes(site, std::char_traits<char>::length(site), h);
    Rng rng(h + 0x9e3779b97f4a7c15ull * (attempt + 1));
    return rng.chance(p);
}

bool
FaultInjector::injectRunThrow(const std::string &key,
                              unsigned attempt) const
{
    return decide("run-throw", key, attempt, spec_.runThrowP);
}

bool
FaultInjector::injectRunHang(const std::string &key) const
{
    return decide("run-hang", key, 0, spec_.runHangP);
}

bool
FaultInjector::injectCacheCorrupt(const std::string &key) const
{
    return decide("cache-corrupt", key, 0, spec_.cacheCorruptP);
}

bool
FaultInjector::injectWorkerCrash(const std::string &key) const
{
    return decide("worker-crash", key, 0, spec_.workerCrashP);
}

bool
FaultInjector::injectLsqCorrupt(const std::string &key) const
{
    return decide("lsq-corrupt", key, 0, spec_.lsqCorruptP);
}

} // namespace dmdc
