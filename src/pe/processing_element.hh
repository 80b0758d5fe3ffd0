/**
 * @file
 * Processing-element-resident trace state.
 *
 * Each PE holds one in-flight trace (Figure 2). Intra-trace values are
 * pre-renamed to producer slot indices once, when the trace is selected
 * (predecode()), and bypass locally; dispatch renames only the live-in
 * and live-out registers, to global physical registers. Instructions
 * remain in the PE until retirement, which is what makes selective
 * reissue transparent (Section 2.2.3): whenever an input value arrives
 * again, the consumer simply reissues.
 */

#ifndef TPROC_PE_PROCESSING_ELEMENT_HH
#define TPROC_PE_PROCESSING_ELEMENT_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "rename/rename.hh"
#include "tpred/trace_predictor.hh"
#include "trace/trace.hh"

namespace tproc
{

/** InFlightTrace::nextDoneAt while nothing is in flight. */
constexpr Cycle neverDone = std::numeric_limits<Cycle>::max();

/**
 * Dynamic state of one instruction slot in a PE.
 *
 * Only what changes while the trace is resident lives here. The
 * instruction and its pre-decoded dependences stay in the shared Trace
 * (InFlightTrace::code): dispatch initializes dynamic state only, and
 * the phases read static facts from one copy per trace. The flags lead
 * the struct, packed together, because every scan reads them.
 */
struct DynSlot
{
    /** @name Scheduling flags. */
    /// @{
    bool issued = false;
    bool completed = false;
    bool waitingBus = false;    //!< agen done, waiting for a cache bus
    bool agenDone = false;      //!< effective address computed
    bool performed = false;     //!< store version live in the ARB
    bool resolvedTaken = false;     //!< branch outcome of last execution
    /** Value-change filter across reissues: consumers only reissue when
     *  a recompletion actually produced a different value. Deliberately
     *  not cleared by resetDynamic. */
    bool everCompleted = false;
    /// @}

    /** @name Renaming (global registers; intra-trace values bypass). */
    /// @{
    PhysReg src1 = invalidPhysReg;  //!< live-in phys reg for rs1
    PhysReg src2 = invalidPhysReg;
    PhysReg dest = invalidPhysReg;  //!< live-out phys reg (last writers)
    uint32_t issueCount = 0;        //!< times issued (reissue statistics)
    /// @}

    /** @name Execution state. */
    /// @{
    Cycle execDoneAt = 0;   //!< completion time of the in-flight issue
    Cycle earliestIssue = 0;    //!< dispatch / repair / reissue gate
    int64_t value = 0;      //!< result (dest value / store data / br cond)
    int64_t lastValue = 0;
    int64_t srcVal1 = 0;    //!< operand values captured at issue
    int64_t srcVal2 = 0;
    /// @}

    /** @name Memory state. */
    /// @{
    Addr effAddr = invalidAddr;
    Addr brTarget = invalidAddr;    //!< resolved indirect target
    /// @}

    /** Clear execution state so the slot issues again from scratch.
     *  earliestIssue is preserved; callers adjust it explicitly. */
    void
    resetDynamic()
    {
        issued = completed = false;
        execDoneAt = 0;
        value = 0;
        resolvedTaken = false;
        brTarget = invalidAddr;
        effAddr = invalidAddr;
        agenDone = false;
        performed = false;
        waitingBus = false;
    }
};

/** A live-out register of a trace. */
struct LiveOut
{
    ArchReg arch;
    PhysReg phys;
    int slot;
};

/**
 * A trace resident in a PE, with full recovery metadata.
 *
 * The shared Trace carries everything that depends only on the trace
 * (instructions, intra-trace dependences, live-out list, slot masks);
 * this struct carries the renaming and the dynamic state of one
 * dispatch of it.
 */
struct InFlightTrace
{
    TraceUid uid = invalidTraceUid;
    std::shared_ptr<const Trace> trace;
    /** trace->slots.data(), cached at dispatch and repair: the static
     *  half of slot i is code[i]. */
    const TraceSlot *code = nullptr;
    int peId = -1;
    std::vector<DynSlot> slots;
    std::vector<LiveOut> liveOuts;

    /** Global map snapshot taken before this trace was renamed; recovery
     *  backs the maps up to this state (Section 2.1). */
    RenameMap mapBefore;
    /** Trace predictor path history before this trace was predicted. */
    PathHistory histBefore;

    /** Logical position in the window; re-derived from the PE linked
     *  list whenever the window changes (disambiguation support). */
    int64_t logicalPos = -1;

    /** @name Scheduling sets (wake-driven issue and completion).
     * The sets change only at the transitions that move a slot, so the
     * per-cycle issue, completion and retire phases visit the slots that
     * can act instead of polling the whole trace. A slot is pending
     * while it is neither issued nor completed.
     *  - completed: the slots whose completed flag is set.
     *  - inFlight: issued, not completed, not waiting for a cache bus.
     *  - wake: the pending slots issueTrace visits. A slot enters it at
     *    dispatch if it has no local producer (the trace's roots), at
     *    repair, at every reissue (including the not-yet-issued path
     *    that only moves earliestIssue), and when its last incomplete
     *    local producer completes. It may leave it without issuing only
     *    while a local producer is incomplete; that producer's
     *    completion puts it back.
     *  - nextDoneAt: a lower bound on execDoneAt over inFlight;
     *    phaseCompletions skips the trace while it lies in the future.
     * They decide which slots a phase visits, never what it does with
     * them, so they cannot change simulation results.
     * Processor::checkInvariants() checks each one against the slot
     * flags; WorkloadModel.VerifiedSlice, SmallMachineStillCorrect and
     * RandomConfigsComplete (tests/test_processor_properties.cc) call
     * it every cycle. */
    /// @{
    SlotSet completed = 0;
    SlotSet inFlight = 0;
    SlotSet wake = 0;
    Cycle nextDoneAt = neverDone;
    /// @}

    size_t size() const { return slots.size(); }

    /** True while a local producer of slot s is incomplete: s cannot
     *  issue, and that producer's completion wakes it. */
    bool
    waitsOnLocalProducer(size_t s) const
    {
        return (code[s].producers & ~completed) != 0;
    }

    /** Slot s started executing (issue, or its cache-bus grant) and
     *  finishes at done. */
    void
    markInFlight(size_t s, Cycle done)
    {
        inFlight |= slotBit(s);
        nextDoneAt = std::min(nextDoneAt, done);
    }

    /** Rebuild the scheduling sets from the slot flags and wake every
     *  pending slot (repair). */
    void resetSchedule();
};

/**
 * Dispatch a pre-decoded trace into t: rename it against the global
 * map, in place.
 *
 * Intra-trace dependences were resolved to slot indices when the trace
 * was selected, so this only snapshots the map, reads each live-in's
 * source from it, allocates a physical register per live-out (in the
 * trace's ascending register order) and installs them in the map, and
 * wakes the trace's roots. t is fully re-initialized for the new trace
 * but keeps its vectors' capacity — the processor's PE slot pool
 * recycles the same InFlightTrace across dispatches, so the steady
 * state allocates nothing.
 */
void initInFlightTrace(InFlightTrace &t, TraceUid uid,
                       std::shared_ptr<const Trace> trace, RenameMap &map,
                       PhysRegFile &prf);

/** Allocating convenience wrapper around initInFlightTrace (tests). */
std::unique_ptr<InFlightTrace> makeInFlightTrace(
    TraceUid uid, std::shared_ptr<const Trace> trace, RenameMap &map,
    PhysRegFile &prf);

/**
 * Replace the instructions of a PE-resident trace after slot prefix_len
 * with the repaired trace's instructions (FGCI-style intra-PE repair).
 *
 * Slots [0, prefix_len) keep their dynamic state; the repaired trace is
 * guaranteed by selection determinism to share that prefix. Live-out
 * physical registers of surviving prefix last-writers are preserved; old
 * suffix live-outs are appended to deferred_free (released once the
 * subsequent re-dispatch pass has re-pointed all consumers).
 *
 * @param map the global map, already restored to t.mapBefore
 * @param now current cycle (publishing values of prefix slots that newly
 *        became live-outs)
 */
void repairInFlightTrace(InFlightTrace &t,
                         std::shared_ptr<const Trace> new_trace,
                         size_t prefix_len, RenameMap &map, PhysRegFile &prf,
                         Cycle now, std::vector<PhysReg> &deferred_free);

/**
 * Trace re-dispatch (Section 2.2.1): re-rename live-ins against the
 * updated map; live-outs keep their mappings and are re-installed into
 * the map. @return the slots whose source register names changed and
 * must therefore reissue.
 */
SlotSet redispatchInFlightTrace(InFlightTrace &t, RenameMap &map);

} // namespace tproc

#endif // TPROC_PE_PROCESSING_ELEMENT_HH
