/**
 * @file
 * Shared command-line option layer for every harness.
 *
 * Before this layer, bench/bench_common.hh and tools/dmdc_sim.cc each
 * hand-rolled an argv loop: flags parsed in one binary but not the
 * other, `--insts=abc` died with an uncaught std::invalid_argument,
 * and `--bench=` took a list in dmdc_sim but a single name in the
 * benches. CliParser is a small declarative flag table — register
 * options, then parse — with strict number validation (malformed or
 * out-of-range values produce a clean usage message and exit code
 * kExitUsage). CampaignCliOptions bundles the campaign-engine flags
 * (--jobs/--no-cache/--json/--timeout/--max-retries/--trace/...) so
 * they spell and behave identically everywhere.
 */

#ifndef DMDC_SIM_CLI_OPTIONS_HH
#define DMDC_SIM_CLI_OPTIONS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/trace_sink.hh"
#include "sim/campaign_runner.hh"

namespace dmdc
{

// Process exit codes shared by every harness.
constexpr int kExitOk = 0;       ///< success
constexpr int kExitFailure = 1;  ///< operation failed (e.g. all runs)
constexpr int kExitUsage = 2;    ///< bad command line / bad config
constexpr int kExitDegraded = 4; ///< finished, but some runs degraded
/** Interrupted by SIGINT/SIGTERM after a graceful drain: the journal
 *  is flushed and rerunning the same command will converge.
 *  Distinct from kExitFailure so a calling script can tell "stop
 *  requested" (rerun) from "the campaign broke". */
constexpr int kExitInterrupted = 5;

/**
 * Strict unsigned decimal parse: the whole token must be digits and
 * fit @p out. Unlike std::stoull this never throws and never accepts
 * trailing garbage ("12x"), signs, or whitespace.
 */
bool parseCliU64(const std::string &text, std::uint64_t &out);
bool parseCliUnsigned(const std::string &text, unsigned &out);
/** Strict double parse (full-token, finite). */
bool parseCliDouble(const std::string &text, double &out);

/**
 * Declarative argv parser. Options register a name ("jobs" matches
 * --jobs) plus a destination; values accept both `--name=value` and
 * `--name value`. Unknown options and malformed values fail with a
 * message naming the offending argument.
 */
class CliParser
{
  public:
    explicit CliParser(std::string program, std::string synopsis = "");

    /** `--name` sets *out = true. */
    void flag(const std::string &name, bool *out,
              const std::string &help);
    /** `--name` invokes fn (e.g. --quick presets, --list actions). */
    void action(const std::string &name, std::function<void()> fn,
                const std::string &help);
    /** `--name=value` with strict numeric validation. */
    void value(const std::string &name, std::uint64_t *out,
               const std::string &help);
    void value(const std::string &name, unsigned *out,
               const std::string &help);
    void value(const std::string &name, double *out,
               const std::string &help);
    void value(const std::string &name, std::string *out,
               const std::string &help);
    /** `--name=a,b,c` replaces *out with the comma-split list. */
    void list(const std::string &name, std::vector<std::string> *out,
              const std::string &help);
    /**
     * `--name=value` routed through a custom validator; return false
     * (after filling @p err) to reject the value.
     */
    void valueAction(
        const std::string &name,
        std::function<bool(const std::string &, std::string &)> fn,
        const std::string &help);
    /** Collect bare (non --option) arguments; error when absent. */
    void positional(std::vector<std::string> *out,
                    const std::string &label);
    /** Parse argv; false + @p err on any problem (nothing printed). */
    bool parse(int argc, char **argv, std::string &err);
    /** Parse argv; on error print message + usage and exit(kExitUsage).
     *  Also handles --help (prints usage, exits 0). */
    void parseOrExit(int argc, char **argv);
    /** Print @p err + usage to stderr and exit(kExitUsage). */
    [[noreturn]] void failUsage(const std::string &err) const;

    std::string usage() const;

  private:
    enum class Kind
    {
        Flag, Action, U64, Unsigned, Double, String, List, Custom
    };

    struct Option
    {
        std::string name;
        Kind kind;
        void *out = nullptr;
        std::function<void()> fn;
        std::function<bool(const std::string &, std::string &)> custom;
        std::string help;

        bool
        takesValue() const
        {
            return kind != Kind::Flag && kind != Kind::Action;
        }
    };

    const Option *findOption(const std::string &name) const;
    bool applyValue(const Option &opt, const std::string &value,
                    std::string &err);

    std::string program_;
    std::string synopsis_;
    std::vector<Option> options_;
    std::vector<std::string> *positional_ = nullptr;
    std::string positionalLabel_;
};

/**
 * The campaign-engine flag bundle every campaign-running binary
 * shares. Usage: addTo(parser); parse; finalize(); apply(); then build
 * a CampaignRunner from config and every run from the template run.
 */
struct CampaignCliOptions
{
    CampaignConfig config;        ///< assembled runner configuration
    /** Run template: --timeout, --check and --agent set its timeoutMs,
     *  check and coherenceAgent; every run a command builds starts
     *  from it. */
    SimOptions run;
    bool noCache = false;         ///< --no-cache
    TraceOptions trace;           ///< --trace / --trace-out / --trace-buffer
    std::string traceOutText;     ///< raw --trace-out value
    std::string checkText;        ///< raw --check value
    std::string agentText;        ///< raw --agent value

    /** Register the shared flags on @p parser. */
    void addTo(CliParser &parser);

    /**
     * Cross-validate and derive: reject a negative --timeout, require
     * --trace with --trace-out, default the trace file to
     * trace.<pid>.json, parse --check/--agent. False + @p err on
     * conflict.
     */
    bool finalize(std::string &err);

    /** Configure the trace sink from this. */
    void apply() const;
};

} // namespace dmdc

#endif // DMDC_SIM_CLI_OPTIONS_HH
