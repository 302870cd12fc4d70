/**
 * @file
 * Deterministic fault injection for the campaign engine.
 *
 * The injector decides, per (site, run identity, attempt), whether to
 * inject a fault. Decisions are pure functions of the configured seed
 * and the identity string — independent of thread schedule, wall
 * clock, and execution order — so a faulty campaign replays exactly
 * and tests can predict which runs fail.
 *
 * Configuration comes from the DMDC_FAULT environment variable (read
 * once per process) or programmatically via configure():
 *
 *   DMDC_FAULT=cache-corrupt:p=0.1,run-throw:p=0.05,run-hang:p=0.01
 *
 * optionally with a trailing ",seed=<n>". Sites:
 *   run-throw     throw a transient RunError before simulating
 *   run-hang      wedge the run (caught by the simulator watchdog)
 *   cache-corrupt write a deliberately corrupt .dmdc_cache/ entry
 *   worker-crash  SIGKILL the whole campaign process (dmdc_sim or a
 *                 bench) right after a freshly simulated run is
 *                 cached (process-recovery chaos)
 *   lsq-corrupt   silently weaken the LSQ's dependence checking for
 *                 the run (drop detected violations and commit-time
 *                 replays): the --check ordering oracle must report
 *                 the resulting forbidden outcomes, proving it would
 *                 catch a real checking bug
 *
 * The worker-crash site models process death. It fires only after a
 * *freshly simulated* run has been cached, so every crash strictly
 * follows progress: rerunning the same command is served that run
 * from the cache, and a campaign with R runs converges within R + 1
 * invocations.
 */

#ifndef DMDC_SIM_FAULT_INJECTOR_HH
#define DMDC_SIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>

namespace dmdc
{

/** Per-site injection probabilities plus the decision seed. */
struct FaultSpec
{
    double cacheCorruptP = 0.0;
    double runThrowP = 0.0;
    double runHangP = 0.0;
    double workerCrashP = 0.0;
    double lsqCorruptP = 0.0;
    std::uint64_t seed = 0;

    bool
    any() const
    {
        return cacheCorruptP > 0.0 || runThrowP > 0.0 ||
            runHangP > 0.0 || workerCrashP > 0.0 || lsqCorruptP > 0.0;
    }
};

/**
 * Parse a DMDC_FAULT specification string; throws RunError(Config)
 * on unknown site names, bad probabilities, or malformed syntax.
 * The empty string parses to an all-zero (disabled) spec.
 */
FaultSpec parseFaultSpec(const std::string &text);

/** The process-wide fault decision oracle. */
class FaultInjector
{
  public:
    /**
     * The global instance. On first access the DMDC_FAULT environment
     * variable is parsed; a malformed value is a fatal() (the user
     * asked for chaos they didn't specify correctly).
     */
    static FaultInjector &global();

    /** Replace the configuration (test hook; not thread-safe against
     *  concurrently executing campaigns). */
    void configure(const FaultSpec &spec) { spec_ = spec; }

    const FaultSpec &spec() const { return spec_; }
    bool enabled() const { return spec_.any(); }

    /** Throw a transient RunError before attempt @p attempt of the
     *  run identified by @p key? */
    bool injectRunThrow(const std::string &key,
                        unsigned attempt) const;

    /** Wedge the run identified by @p key? (Per-run, not per-attempt:
     *  real deadlocks reproduce on retry.) */
    bool injectRunHang(const std::string &key) const;

    /** Corrupt the cache entry being written for @p key? */
    bool injectCacheCorrupt(const std::string &key) const;

    /** Kill the campaign process after the freshly simulated run
     *  identified by @p key is cached? */
    bool injectWorkerCrash(const std::string &key) const;

    /** Silently weaken the LSQ checking of the run identified by
     *  @p key? (Per-run: the corruption, like a real checking bug,
     *  reproduces on retry.) */
    bool injectLsqCorrupt(const std::string &key) const;

  private:
    bool decide(const char *site, const std::string &key,
                unsigned attempt, double p) const;

    FaultSpec spec_;
};

} // namespace dmdc

#endif // DMDC_SIM_FAULT_INJECTOR_HH
