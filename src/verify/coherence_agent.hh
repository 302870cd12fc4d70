/**
 * @file
 * CoherenceAgent — a scripted remote sharer.
 *
 * Replaces the random invalidation injector with deterministic
 * synchronization-idiom traffic (the interesting patterns named by
 * Louvre, arXiv 1710.10746): a producer-consumer handoff, a contended
 * lock handoff, and false sharing on one hot line. The agent only
 * generates invalidation deliveries — the protocol side effects a
 * remote writer has on this core — aimed at lines inside the
 * workload's data footprint so they actually collide with in-flight
 * loads.
 *
 * The interface mirrors InvalidationInjector, so the simulator hands
 * either source to its RunLoop as the same per-cycle traffic hook.
 */

#ifndef DMDC_VERIFY_COHERENCE_AGENT_HH
#define DMDC_VERIFY_COHERENCE_AGENT_HH

#include <cstdint>
#include <string>

#include "common/random.hh"
#include "common/types.hh"

namespace dmdc
{

class Pipeline;

/** The scripted workload family an agent runs. */
enum class AgentFamily
{
    ProducerConsumer, ///< payload lines then a flag line, each period
    LockHandoff,      ///< bursts of contended writes to one lock line
    FalseSharing,     ///< steady writes to one hot shared line
    Mixed,            ///< rotate through the three families
};

/** The scripted coherence agent. */
class CoherenceAgent
{
  public:
    /**
     * Validate an --agent= spec ("family" or "family:period=N").
     * @return false (with @p error filled) when malformed.
     */
    static bool validateSpec(const std::string &spec,
                             std::string *error = nullptr);

    /**
     * @param spec family name, optionally ":period=<cycles>"
     * @param data_base base of the workload's data footprint
     * @param data_size footprint size in bytes (power of two)
     * @param line_bytes cache line granularity
     */
    CoherenceAgent(const std::string &spec, Addr data_base,
                   Addr data_size, unsigned line_bytes,
                   std::uint64_t seed = 12345);

    /** Call once per simulated cycle. */
    void tick(Pipeline &pipe);

    std::uint64_t injected() const { return injected_; }
    AgentFamily family() const { return family_; }

  private:
    Addr line(Addr index) const;
    void deliver(Pipeline &pipe, Addr addr);
    void tickFamily(Pipeline &pipe, AgentFamily family, Cycle phase);

    AgentFamily family_;
    Addr base_ = 0;
    Addr sizeMask_ = 0;
    unsigned lineBytes_ = 64;
    std::uint64_t period_ = 0;
    Cycle cycle_ = 0;
    std::uint64_t iteration_ = 0;
    Rng rng_;
    std::uint64_t injected_ = 0;
};

} // namespace dmdc

#endif // DMDC_VERIFY_COHERENCE_AGENT_HH
