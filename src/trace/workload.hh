/**
 * @file
 * Abstract workload interface consumed by the pipeline's fetch stage.
 *
 * A workload exposes the *architectural* (correct-path) dynamic
 * instruction stream as a random-access sequence indexed by dynamic
 * instruction number, plus a stateless generator for wrong-path
 * micro-ops. Keeping the correct path independent of squash timing
 * makes runs of different LSQ schemes consume bit-identical traces,
 * which is what the paper's relative measurements need.
 */

#ifndef DMDC_TRACE_WORKLOAD_HH
#define DMDC_TRACE_WORKLOAD_HH

#include <cstdint>
#include <string>

#include "trace/microop.hh"

namespace dmdc
{

/** Base class for instruction-stream producers. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * The @p index-th correct-path micro-op (0-based, program order).
     * Indices may be re-read after a squash, but never before
     * discardBefore() has retired them. The reference is valid until
     * the next op() call.
     */
    virtual const MicroOp &op(std::uint64_t index) = 0;

    /**
     * Synthesize the wrong-path micro-op fetched at @p pc. @p salt
     * disambiguates repeated wrong-path visits so the stream does not
     * degenerate; generation is deterministic in (pc, salt).
     */
    virtual MicroOp wrongPathOp(Addr pc, std::uint64_t salt) = 0;

    /** All indices < @p index have committed and will not be re-read. */
    virtual void discardBefore(std::uint64_t index) = 0;

    /** Benchmark name (e.g. "gzip"). */
    virtual const std::string &name() const = 0;

    /** True for the floating-point group, false for integer. */
    virtual bool isFpBenchmark() const = 0;
};

} // namespace dmdc

#endif // DMDC_TRACE_WORKLOAD_HH
