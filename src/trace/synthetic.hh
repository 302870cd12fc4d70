/**
 * @file
 * Parameterized synthetic workload generator — the SPEC CPU2000
 * substitute documented in DESIGN.md.
 *
 * Construction synthesizes a static program: a main region of basic
 * blocks with loop-back / forward-conditional / call terminators plus a
 * set of leaf functions. The dynamic trace is produced by walking this
 * CFG with per-branch behavioural models, while registers and data
 * addresses are drawn to realize the configured dependence structure
 * (chain depth, pointer chasing, late-resolving store addresses, true
 * store-to-load sharing).
 */

#ifndef DMDC_TRACE_SYNTHETIC_HH
#define DMDC_TRACE_SYNTHETIC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "trace/address_stream.hh"
#include "trace/branch_model.hh"
#include "trace/workload.hh"

namespace dmdc
{

/**
 * Knobs describing one synthetic benchmark. See spec_suite.cc for the
 * 26 calibrated instances.
 */
struct WorkloadParams
{
    std::string name = "generic";
    bool fp = false;               ///< benchmark group (INT vs FP)
    std::uint64_t seed = 1;

    // --- static code shape ---
    unsigned numMainBlocks = 256;  ///< blocks in the main region
    unsigned numFunctions = 8;     ///< callable leaf functions
    double blockLenMean = 6.0;     ///< micro-ops per basic block
    double loopBackProb = 0.25;    ///< terminator is a loop-back branch
    double callProb = 0.05;        ///< terminator is a call
    double loopTripMean = 12.0;    ///< loop trip count mean

    // --- conditional branch behaviour mix ---
    double biasedFrac = 0.5;       ///< bimodal-predictable fraction
    double patternedFrac = 0.3;    ///< gshare-predictable fraction
    double takenBias = 0.9;        ///< bias of biased branches

    // --- instruction mix (fractions of non-terminator slots) ---
    double loadFrac = 0.26;
    double storeFrac = 0.11;
    double fpFrac = 0.0;           ///< of ALU ops, fraction on FP units
    double mulFrac = 0.04;         ///< of ALU ops, multiplies
    double divFrac = 0.01;         ///< of ALU ops, divides

    // --- register dependence structure ---
    double depDistMean = 4.0;      ///< producer-consumer distance
    double chaseFrac = 0.10;       ///< loads: serial pointer chase
    double strideFrac = 0.55;      ///< loads: strided streams
    double storeAddrFromLoadFrac = 0.25; ///< stores with load-fed address
    /**
     * Fraction of stores whose address register is architectural at
     * rename (stable base pointer / induction variable): the store
     * resolves as soon as it issues. The remainder (minus the
     * load-fed fraction) depends on recent index arithmetic.
     */
    double storeAddrReadyFrac = 0.55;
    double shareProb = 0.06;       ///< loads reading a recent store addr
    /**
     * Loads reading the same cache line as a recent store but a
     * different quad word (stencil/field spatial locality). These
     * differentiate quad-word from line-interleaved YLA banking.
     */
    double nearStoreFrac = 0.12;
    double smallSizeFrac = 0.12;   ///< accesses narrower than 4 bytes

    // --- memory footprint ---
    unsigned footprintLog2 = 20;   ///< main data footprint (bytes, log2)
    unsigned hotLog2 = 12;         ///< hot (stack-like) region size
    unsigned numStreams = 4;       ///< concurrent strided streams
};

/** Concrete Workload built from WorkloadParams. */
class SyntheticWorkload : public Workload
{
  public:
    explicit SyntheticWorkload(const WorkloadParams &params);
    ~SyntheticWorkload() override;

    const MicroOp &op(std::uint64_t index) override;
    MicroOp wrongPathOp(Addr pc, std::uint64_t salt) override;
    void discardBefore(std::uint64_t index) override;

    const std::string &name() const override { return params_.name; }
    bool isFpBenchmark() const override { return params_.fp; }

    const WorkloadParams &params() const { return params_; }

  private:
    struct Static;             // static program representation
    struct DynState;           // trace-generation state

    void buildStaticProgram();
    void generateNext();       // append one correct-path op to window_

    WorkloadParams params_;
    std::unique_ptr<Static> static_;
    std::unique_ptr<DynState> dyn_;

    /**
     * Ops [windowBase_, windowEnd_) live at window_[index & windowMask_].
     * The ring doubles when full, so its size follows the reader's
     * commit lag without depending on any core parameter.
     */
    std::vector<MicroOp> window_;
    std::uint64_t windowMask_ = 0;
    std::uint64_t windowBase_ = 0;
    std::uint64_t windowEnd_ = 0;
};

} // namespace dmdc

#endif // DMDC_TRACE_SYNTHETIC_HH
