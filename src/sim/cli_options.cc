#include "sim/cli_options.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

#include <unistd.h>

#include "verify/check_mode.hh"
#include "verify/coherence_agent.hh"

namespace dmdc
{

// ---- strict number parsing -------------------------------------------

bool
parseCliU64(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.size() > 20)
        return false;
    for (char c : text) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    out = v;
    return true;
}

bool
parseCliUnsigned(const std::string &text, unsigned &out)
{
    std::uint64_t v = 0;
    if (!parseCliU64(text, v) ||
        v > std::numeric_limits<unsigned>::max())
        return false;
    out = static_cast<unsigned>(v);
    return true;
}

bool
parseCliDouble(const std::string &text, double &out)
{
    if (text.empty() || text.size() > 64)
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    if (!(v == v) || v > std::numeric_limits<double>::max() ||
        v < -std::numeric_limits<double>::max())
        return false;
    out = v;
    return true;
}

// ---- CliParser -------------------------------------------------------

CliParser::CliParser(std::string program, std::string synopsis)
    : program_(std::move(program)), synopsis_(std::move(synopsis))
{
}

void
CliParser::flag(const std::string &name, bool *out,
                const std::string &help)
{
    options_.push_back({name, Kind::Flag, out, {}, {}, help});
}

void
CliParser::action(const std::string &name, std::function<void()> fn,
                  const std::string &help)
{
    options_.push_back(
        {name, Kind::Action, nullptr, std::move(fn), {}, help});
}

void
CliParser::value(const std::string &name, std::uint64_t *out,
                 const std::string &help)
{
    options_.push_back({name, Kind::U64, out, {}, {}, help});
}

void
CliParser::value(const std::string &name, unsigned *out,
                 const std::string &help)
{
    options_.push_back({name, Kind::Unsigned, out, {}, {}, help});
}

void
CliParser::value(const std::string &name, double *out,
                 const std::string &help)
{
    options_.push_back({name, Kind::Double, out, {}, {}, help});
}

void
CliParser::value(const std::string &name, std::string *out,
                 const std::string &help)
{
    options_.push_back({name, Kind::String, out, {}, {}, help});
}

void
CliParser::list(const std::string &name,
                std::vector<std::string> *out, const std::string &help)
{
    options_.push_back({name, Kind::List, out, {}, {}, help});
}

void
CliParser::valueAction(
    const std::string &name,
    std::function<bool(const std::string &, std::string &)> fn,
    const std::string &help)
{
    options_.push_back(
        {name, Kind::Custom, nullptr, {}, std::move(fn), help});
}

void
CliParser::positional(std::vector<std::string> *out,
                      const std::string &label)
{
    positional_ = out;
    positionalLabel_ = label;
}

const CliParser::Option *
CliParser::findOption(const std::string &name) const
{
    for (const Option &opt : options_) {
        if (opt.name == name)
            return &opt;
    }
    return nullptr;
}

bool
CliParser::applyValue(const Option &opt, const std::string &value,
                      std::string &err)
{
    switch (opt.kind) {
      case Kind::U64:
        if (!parseCliU64(value, *static_cast<std::uint64_t *>(opt.out))) {
            err = "--" + opt.name + " expects an unsigned integer, got '"
                + value + "'";
            return false;
        }
        return true;
      case Kind::Unsigned:
        if (!parseCliUnsigned(value,
                              *static_cast<unsigned *>(opt.out))) {
            err = "--" + opt.name + " expects an unsigned integer, got '"
                + value + "'";
            return false;
        }
        return true;
      case Kind::Double:
        if (!parseCliDouble(value, *static_cast<double *>(opt.out))) {
            err = "--" + opt.name + " expects a finite number, got '" +
                  value + "'";
            return false;
        }
        return true;
      case Kind::String:
        *static_cast<std::string *>(opt.out) = value;
        return true;
      case Kind::List: {
        auto *out = static_cast<std::vector<std::string> *>(opt.out);
        out->clear();
        std::stringstream ss(value);
        std::string item;
        while (std::getline(ss, item, ',')) {
            if (!item.empty())
                out->push_back(item);
        }
        if (out->empty()) {
            err = "--" + opt.name + " expects a comma-separated list";
            return false;
        }
        return true;
      }
      case Kind::Custom:
        if (!opt.custom(value, err)) {
            if (err.empty())
                err = "invalid value for --" + opt.name;
            return false;
        }
        return true;
      case Kind::Flag:
      case Kind::Action:
        break;
    }
    err = "--" + opt.name + " does not take a value";
    return false;
}

bool
CliParser::parse(int argc, char **argv, std::string &err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (positional_) {
                positional_->push_back(arg);
                continue;
            }
            err = "unexpected argument '" + arg + "'";
            return false;
        }
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(2, eq == std::string::npos
                                                   ? std::string::npos
                                                   : eq - 2);
        const Option *opt = findOption(name);
        if (!opt) {
            err = "unknown option '--" + name + "'";
            return false;
        }
        std::string value;
        if (eq != std::string::npos) {
            if (!opt->takesValue()) {
                err = "--" + name + " does not take a value";
                return false;
            }
            value = arg.substr(eq + 1);
        } else if (opt->takesValue()) {
            if (i + 1 >= argc) {
                err = "--" + name + " requires a value";
                return false;
            }
            value = argv[++i];
        }
        if (opt->kind == Kind::Flag) {
            *static_cast<bool *>(opt->out) = true;
        } else if (opt->kind == Kind::Action) {
            opt->fn();
        } else if (!applyValue(*opt, value, err)) {
            return false;
        }
    }
    return true;
}

void
CliParser::parseOrExit(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            std::fputs(usage().c_str(), stdout);
            std::exit(kExitOk);
        }
    }
    std::string err;
    if (!parse(argc, argv, err))
        failUsage(err);
}

void
CliParser::failUsage(const std::string &err) const
{
    std::fprintf(stderr, "%s: %s\n\n%s", program_.c_str(), err.c_str(),
                 usage().c_str());
    std::exit(kExitUsage);
}

std::string
CliParser::usage() const
{
    std::ostringstream os;
    os << "usage: " << program_;
    if (!options_.empty())
        os << " [options]";
    if (positional_)
        os << ' ' << positionalLabel_;
    os << '\n';
    if (!synopsis_.empty())
        os << '\n' << synopsis_ << '\n';
    if (!options_.empty())
        os << "\noptions:\n";
    for (const Option &opt : options_) {
        std::string left = "  --" + opt.name;
        if (opt.takesValue())
            left += "=<v>";
        os << left;
        for (std::size_t pad = left.size(); pad < 26; ++pad)
            os << ' ';
        os << opt.help << '\n';
    }
    return os.str();
}

// ---- campaign flag bundle --------------------------------------------

void
CampaignCliOptions::addTo(CliParser &parser)
{
    parser.value("jobs", &config.jobs,
                 "worker threads (0 = all cores)");
    parser.flag("no-cache", &noCache, "disable the run cache");
    parser.value("cache-dir", &config.cacheDir,
                 "on-disk run cache directory");
    parser.value("timeout", &config.timeoutMs,
                 "per-run wall-clock budget, ms (0 = none)");
    parser.value("max-retries", &config.maxRetries,
                 "retries for transient run failures");
    parser.flag("fail-fast", &config.failFast,
                "stop launching runs after the first failure");
    parser.value("json", &jsonPath, "write the campaign journal here");
    parser.flag("json-deterministic", &jsonDeterministic,
                "strip nondeterministic journal fields + sort");
    parser.value("trace", &trace.channels,
                 "trace channels (comma list or 'all'); captures a "
                 "Chrome trace");
    parser.value("trace-out", &traceOutText,
                 "Chrome trace-event JSON path (default "
                 "trace.<pid>.json)");
    parser.value("trace-buffer", &trace.bufferRecords,
                 "per-thread trace ring capacity, records");
    parser.value("check", &checkText,
                 "commit-time verification: off (default), oracle, "
                 "or litmus (oracle + scripted coherence agent)");
    parser.value("agent", &agentText,
                 "coherence-agent spec for checked runs "
                 "(producer-consumer|lock-handoff|false-sharing|mixed"
                 "[:period=N])");
}

bool
CampaignCliOptions::finalize(std::string &err)
{
    config.useCache = !noCache;
    if (config.timeoutMs < 0.0) {
        err = "--timeout must be >= 0 (ms)";
        return false;
    }
    if (!traceOutText.empty() && trace.channels.empty()) {
        err = "--trace-out requires --trace=<channels|all>";
        return false;
    }
    // Concurrent processes in one directory must not overwrite each
    // other's trace, so the default file is named after the pid.
    trace.outPath = !traceOutText.empty()
        ? traceOutText
        : "trace." + std::to_string(::getpid()) + ".json";
    if (!checkText.empty() &&
        !parseCheckMode(checkText, config.checkMode)) {
        err = "--check expects off, oracle or litmus, got '" +
              checkText + "'";
        return false;
    }
    if (!agentText.empty()) {
        std::string agent_err;
        if (!CoherenceAgent::validateSpec(agentText, &agent_err)) {
            err = "--agent: " + agent_err;
            return false;
        }
        config.coherenceAgent = agentText;
        // A scripted agent only runs under the oracle's eye.
        if (config.checkMode == CheckMode::Off)
            config.checkMode = CheckMode::Litmus;
    }
    return true;
}

void
CampaignCliOptions::apply() const
{
    CampaignRunner::configureGlobal(config);
    if (!jsonPath.empty())
        setCampaignJournal(jsonPath, jsonDeterministic);
    if (trace.enabled()) {
        traceConfigure(trace);
        traceSetThreadName("main");
    }
}

} // namespace dmdc
