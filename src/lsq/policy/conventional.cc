/**
 * @file
 * Conventional scheme ("baseline"): the associative load queue of
 * every shipping out-of-order core. Each resolving store searches the
 * whole LQ for a premature younger load; no filtering, no auxiliary
 * state.
 */

#include "core/pipeline.hh"
#include "energy/array_model.hh"
#include "energy/energy_breakdown.hh"
#include "energy/energy_constants.hh"
#include "lsq/policy/builtin.hh"
#include "lsq/policy/registry.hh"

#include "common/trace_sink.hh"

namespace dmdc
{

namespace
{

/** "violations" channel: one instant per true violation, carrying
 *  the resolving store's seq. */
struct ViolationTrace
{
    TraceCategory &cat = traceCategory("violations");
    std::uint16_t violation = traceNameId("violation");
};

ViolationTrace &
violationTrace()
{
    static ViolationTrace ids;
    return ids;
}

class ConventionalPolicy : public DependencePolicy
{
  public:
    ConventionalPolicy() : DependencePolicy("baseline") {}

    StoreResolveResult
    storeResolved(DynInst *store, Cycle now) override
    {
        (void)now;
        StoreResolveResult result;
        ++activity().lqSearches;
        result.violatingLoad = loadQueue().searchViolation(
            store->seq, store->op.effAddr, store->op.memSize);
        if (result.violatingLoad && !store->wrongPath &&
            !result.violatingLoad->wrongPath) {
            ++activity().trueViolationsDetected;
            traceInstantArg(violationTrace().cat,
                            violationTrace().violation, store->seq);
        }
        return result;
    }

    void
    accountEnergy(const PolicyEnergyContext &ctx,
                  EnergyBreakdown &e) const override
    {
        using namespace array_model;
        using namespace energy_constants;
        const auto &act = activity();
        const unsigned lq_size = ctx.core.lsq.lqSize;
        e.lqCam = static_cast<double>(act.lqSearches.value() +
                                      act.lqInvSearches.value()) *
                camSearch(lq_size, addrTagBits) +
            static_cast<double>(act.lqInserts.value()) *
                ramWrite(lq_size, lqEntryBits) +
            ctx.committedLoads * ramRead(lq_size, lqEntryBits) +
            ctx.cycles * camLeakUnit * lq_size * lqEntryBits;
    }
};

} // namespace

namespace builtin_policies
{

void
registerConventional(DependencePolicyRegistry &registry)
{
    SchemeInfo info;
    info.name = "baseline";
    info.aliases = {"conventional"};
    info.summary =
        "conventional associative LQ search on every store resolve";
    info.make = [](const LsqParams &) {
        return std::make_unique<ConventionalPolicy>();
    };
    registry.add(std::move(info));
}

} // namespace builtin_policies
} // namespace dmdc
