/**
 * @file
 * Processing-element-resident trace state.
 *
 * Each PE holds one in-flight trace (Figure 2). Intra-trace values are
 * pre-renamed to producer slot indices and bypass locally; live-in and
 * live-out registers are renamed to global physical registers at
 * dispatch. Instructions remain in the PE until retirement, which is
 * what makes selective reissue transparent (Section 2.2.3): whenever an
 * input value arrives again, the consumer simply reissues.
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

/**
 * A set of slots of one trace: bit i stands for slot i. One word holds
 * a whole trace because no trace is longer than maxTraceSlots.
 */
using SlotSet = uint32_t;
static_assert(sizeof(SlotSet) * 8 >= maxTraceSlots,
              "a SlotSet must hold every slot of the longest trace");

inline SlotSet
slotBit(size_t slot)
{
    return SlotSet(1) << slot;
}

/** Remove the lowest slot from a nonempty set and return it. */
inline int
popLowestSlot(SlotSet &set)
{
    const int slot = __builtin_ctz(set);
    set &= set - 1;
    return slot;
}

/** InFlightTrace::nextDoneAt while nothing is in flight. */
constexpr Cycle neverDone = std::numeric_limits<Cycle>::max();

/**
 * Dynamic state of one instruction slot in a PE.
 *
 * Field order is load-bearing for the hot path: the issue/completion
 * phases touch the flags, gate cycles, and renaming fields every cycle,
 * so those lead the struct (first cache lines); the flags are packed
 * together instead of interleaved with wider members.
 */
struct DynSlot
{
    /** @name Scheduling flags (hottest: read by every scan). */
    /// @{
    bool issued = false;
    bool completed = false;
    bool waitingBus = false;    //!< agen done, waiting for a cache bus
    bool agenDone = false;      //!< effective address computed
    bool performed = false;     //!< store version live in the ARB
    bool isCondBr = false;
    bool predTaken = false;     //!< outcome the trace was selected with
    bool resolvedTaken = false;     //!< branch outcome of last execution
    /** Value-change filter across reissues: consumers only reissue when
     *  a recompletion actually produced a different value. Deliberately
     *  not cleared by resetDynamic. */
    bool everCompleted = false;
    bool inRegion = false;
    bool regionStart = false;
    /** The ISA's readsRs1/readsRs2/writesReg of inst, cached by
     *  setStatic: every readiness check reads them. */
    bool readsRs1 = false;
    bool readsRs2 = false;
    bool writesReg = false;
    /// @}

    /** @name Renaming (read by every readiness check). */
    /// @{
    int dep1 = -1;      //!< producer slot index for rs1, or -1
    int dep2 = -1;
    /** Slots whose dep1 or dep2 is this slot (built with the deps). */
    SlotSet consumers = 0;
    PhysReg src1 = invalidPhysReg;  //!< live-in phys reg for rs1
    PhysReg src2 = invalidPhysReg;
    PhysReg dest = invalidPhysReg;  //!< live-out phys reg (last writers)
    uint32_t issueCount = 0;        //!< times issued (reissue statistics)
    /// @}

    /** @name Execution state. */
    /// @{
    Cycle execDoneAt = 0;   //!< completion time of the in-flight issue
    Cycle readyAt = 0;      //!< when the local value became consumable
    Cycle earliestIssue = 0;    //!< dispatch / repair / reissue gate
    int64_t value = 0;      //!< result (dest value / store data / br cond)
    int64_t lastValue = 0;
    int64_t srcVal1 = 0;    //!< operand values captured at issue
    int64_t srcVal2 = 0;
    /// @}

    /** @name Static portion (copied from the selected trace). */
    /// @{
    Addr pc = 0;
    Instruction inst;
    Addr reconvPc = invalidAddr;
    /// @}

    /** @name Memory state. */
    /// @{
    Addr effAddr = invalidAddr;
    Addr brTarget = invalidAddr;    //!< resolved indirect target
    /// @}

    bool isLoad() const { return inst.op == Opcode::LD; }
    bool isStore() const { return inst.op == Opcode::ST; }

    /** Clear execution state so the slot issues again from scratch.
     *  earliestIssue is preserved; callers adjust it explicitly. */
    void
    resetDynamic()
    {
        issued = completed = false;
        execDoneAt = readyAt = 0;
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

/** A trace resident in a PE, with full recovery metadata. */
struct InFlightTrace
{
    TraceUid uid = invalidTraceUid;
    std::shared_ptr<const Trace> trace;
    int peId = -1;
    std::vector<DynSlot> slots;
    std::vector<LiveOut> liveOuts;

    /** Global map snapshot taken before this trace was renamed; recovery
     *  backs the maps up to this state (Section 2.1). */
    RenameMap mapBefore;
    /** Trace predictor path history before this trace was predicted. */
    PathHistory histBefore;
    /** True if the trace came from the next-trace predictor (vs. being a
     *  forced fallthrough / fallback construction). */
    bool fromPredictor = false;

    /** Logical position in the window; re-derived from the PE linked
     *  list whenever the window changes (disambiguation support). */
    int64_t logicalPos = -1;

    Cycle dispatchedAt = 0;

    /** Count of executed-and-unhandled branch mispredictions inside this
     *  trace (retirement gate). */
    int pendingMisp = 0;

    /** @name Scheduling sets (wake-driven issue and completion).
     * The sets change only at the transitions that move a slot, so the
     * per-cycle issue and completion phases visit the slots that can
     * act instead of polling the whole trace. A slot is pending while
     * it is neither issued nor completed.
     *  - inFlight: issued, not completed, not waiting for a cache bus.
     *  - wake: the pending slots issueTrace visits. A slot enters it at
     *    dispatch, at repair, at every reissue (including the
     *    not-yet-issued path that only moves earliestIssue), and when
     *    one of its local producers completes. It may leave it without
     *    issuing only while a local producer is incomplete; that
     *    producer's completion puts it back.
     *  - nextDoneAt: a lower bound on execDoneAt over inFlight;
     *    phaseCompletions skips the trace while it lies in the future.
     * They decide which slots a phase visits, never what it does with
     * them, so they cannot change simulation results.
     * Processor::checkInvariants() checks each one against the slot
     * flags; WorkloadModel.VerifiedSlice, SmallMachineStillCorrect and
     * RandomConfigsComplete (tests/test_processor_properties.cc) call
     * it every cycle. */
    /// @{
    SlotSet inFlight = 0;
    SlotSet wake = 0;
    Cycle nextDoneAt = neverDone;
    /// @}

    size_t size() const { return slots.size(); }

    /** Slot s started executing (issue, or its cache-bus grant) and
     *  finishes at done. */
    void
    markInFlight(size_t s, Cycle done)
    {
        inFlight |= slotBit(s);
        nextDoneAt = std::min(nextDoneAt, done);
    }

    /** Rebuild the scheduling sets from the slot flags and wake every
     *  pending slot (dispatch and repair). */
    void resetSchedule();
};

/**
 * Rename a freshly selected trace against the global map, in place.
 *
 * The map is updated in place with the trace's live-outs. Intra-trace
 * dependences become slot indices; live-ins read the pre-update map.
 * t is fully re-initialized for the new trace but keeps its vectors'
 * capacity — the processor's PE slot pool recycles the same
 * InFlightTrace across dispatches, so the steady state allocates
 * nothing.
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
 * the map. @return slot indices whose source register names changed and
 * must therefore reissue.
 */
std::vector<int> redispatchInFlightTrace(InFlightTrace &t, RenameMap &map);

} // namespace tproc

#endif // TPROC_PE_PROCESSING_ELEMENT_HH
