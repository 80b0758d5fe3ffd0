/**
 * @file
 * Trace selection: dividing the dynamic instruction stream into traces.
 *
 * Default selection (Section 6.1) terminates traces at the maximum trace
 * length or at any indirect branch (jump indirect, call indirect,
 * return). The ntb constraint additionally terminates at predicted
 * not-taken backward branches (exposing loop exits for CGCI). The fg
 * constraint implements FGCI padding (Section 3.2): when a branch with an
 * embeddable region is encountered and the region fits, the accrued trace
 * length is incremented by the region size up front and frozen until the
 * re-convergent point, so every path through the region ends the trace at
 * the same point.
 *
 * Selection is deterministic given (start pc, branch outcomes, params,
 * program): that is what makes TraceId = (start pc, outcomes) a complete
 * identity, and what guarantees a repaired trace shares its prefix with
 * the original.
 */

#ifndef TPROC_TRACE_SELECTION_HH
#define TPROC_TRACE_SELECTION_HH

#include <functional>

#include "cache/icache.hh"
#include "program/program.hh"
#include "trace/bit.hh"
#include "trace/trace.hh"

namespace tproc
{

/** Selection algorithm parameters. */
struct SelectionParams
{
    int maxTraceLen = 32;
    bool ntb = false;   //!< end traces at predicted not-taken backward br.
    bool fg = false;    //!< FGCI padding selection
};

/**
 * Supplies the outcome of each conditional branch met during selection.
 * @param branch_idx index of this branch within the trace (0-based)
 * @param pc branch pc
 * @param in_region true if selection is inside an embedded FGCI region
 *        when it meets this branch (repair oracles use this to know when
 *        the re-convergent point has been passed)
 */
using BranchOracle = std::function<bool(
    int branch_idx, Addr pc, const Instruction &inst, bool in_region)>;

/** A selected trace plus the timing cost of constructing it. */
struct SelectionResult
{
    Trace trace;
    /** Instruction-cache fetch cycles charged (0 if no icache given). */
    int fetchCycles = 0;
    /** FGCI scan cycles from BIT misses. */
    int scanCycles = 0;
};

class TraceSelector
{
  public:
    TraceSelector(const Program &prog_, SelectionParams params_,
                  Bit *bit_ = nullptr)
        : prog(prog_), params(params_), bit(bit_)
    {}

    /**
     * Select one trace starting at start_pc.
     *
     * @param oracle branch outcome source
     * @param icache if non-null, charge fetch costs for instructions at
     *        slot index >= charge_from_slot
     * @param charge_from_slot first slot whose fetch is charged (used by
     *        trace repair, which re-fetches only from the branch onward)
     * @return the trace, pre-decoded (predecode())
     */
    SelectionResult select(Addr start_pc, const BranchOracle &oracle,
                           ICache *icache = nullptr,
                           size_t charge_from_slot = 0);

    const SelectionParams &parameters() const { return params; }
    Bit *bitTable() const { return bit; }

  private:
    /** select() up to pre-decoding: choose the slots and charge fetch. */
    SelectionResult selectSlots(Addr start_pc, const BranchOracle &oracle,
                                ICache *icache, size_t charge_from_slot);

    const Program &prog;
    SelectionParams params;
    Bit *bit;
};

/** Oracle that replays the outcome bits of a TraceId, falling back to
 *  not-taken past numBranches (used when re-materializing a cached
 *  trace's instructions). */
BranchOracle makeIdOracle(TraceId id);

} // namespace tproc

#endif // TPROC_TRACE_SELECTION_HH
