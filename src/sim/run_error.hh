/**
 * @file
 * Structured run failures.
 *
 * Library paths under src/sim report problems by throwing RunError
 * instead of calling fatal() (which exits the whole process and takes
 * an entire campaign down with it). panic() remains reserved for true
 * simulator-invariant violations — states that indicate a bug, not a
 * bad input or a flaky environment.
 *
 * The campaign engine catches RunError per run, converts it into a
 * RunOutcome, retries transient failures with backoff, and keeps the
 * rest of the campaign alive.
 */

#ifndef DMDC_SIM_RUN_ERROR_HH
#define DMDC_SIM_RUN_ERROR_HH

#include <stdexcept>
#include <string>

namespace dmdc
{

/** What kind of failure a RunError reports. */
enum class RunErrorCategory
{
    Config,       ///< invalid SimOptions / machine configuration
    SimInvariant, ///< the simulation itself misbehaved
    Cache,        ///< run-cache I/O problem (read race, bad entry)
    Timeout,      ///< watchdog: wall-clock or cycle budget exhausted
};

/** Stable lower-case name, as recorded in journals. */
inline const char *
runErrorCategoryName(RunErrorCategory c)
{
    switch (c) {
      case RunErrorCategory::Config:       return "config";
      case RunErrorCategory::SimInvariant: return "sim-invariant";
      case RunErrorCategory::Cache:        return "cache";
      case RunErrorCategory::Timeout:      return "timeout";
    }
    return "?";
}

/**
 * A categorized, catchable run failure. @p transient marks failures
 * that a bounded retry may clear (cache read races, injected chaos);
 * config errors and timeouts are permanent by construction.
 */
class RunError : public std::runtime_error
{
  public:
    RunError(RunErrorCategory category, const std::string &message,
             bool transient = false)
        : std::runtime_error(message), category_(category),
          transient_(transient ||
                     category == RunErrorCategory::Cache)
    {
    }

    RunErrorCategory category() const { return category_; }
    bool transient() const { return transient_; }

  private:
    RunErrorCategory category_;
    bool transient_;
};

/** Terminal state of one campaign run. */
enum class RunStatus
{
    Ok,       ///< completed, result valid
    Failed,   ///< threw; result slot is default-constructed
    TimedOut, ///< watchdog fired; result slot is default-constructed
    Skipped,  ///< not executed (fail-fast abort or failed leader)
};

/** Stable lower-case name, as recorded in journals. */
inline const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Ok:       return "ok";
      case RunStatus::Failed:   return "failed";
      case RunStatus::TimedOut: return "timed-out";
      case RunStatus::Skipped:  return "skipped";
    }
    return "?";
}

/** Per-run execution record the campaign engine fills in. */
struct RunOutcome
{
    RunStatus status = RunStatus::Ok;
    /** Meaningful only when !ok(). */
    RunErrorCategory category = RunErrorCategory::SimInvariant;
    /** Human-readable failure message; empty when ok(). */
    std::string error;
    /** Execution attempts (> 1 means the run was retried). */
    unsigned attempts = 1;
    /** Served from the memo/disk cache (or copied from a leader). */
    bool cached = false;
    double wallMs = 0.0;

    bool ok() const { return status == RunStatus::Ok; }
};

} // namespace dmdc

#endif // DMDC_SIM_RUN_ERROR_HH
