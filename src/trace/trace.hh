/**
 * @file
 * Traces: the fundamental unit of control flow in a trace processor.
 *
 * A trace is identified by its starting pc plus the outcomes of the
 * conditional branches inside it; trace selection is deterministic given
 * that identity, the static program, and the selection parameters.
 */

#ifndef TPROC_TRACE_TRACE_HH
#define TPROC_TRACE_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/instruction.hh"

namespace tproc
{

/**
 * Longest trace the simulator can run, in instructions. TraceId holds
 * one outcome bit per conditional branch in a 32-bit word, and a
 * SlotSet holds one bit per slot in a 32-bit word.
 * ProcessorConfig::validate() rejects a longer selection.maxTraceLen.
 */
constexpr int maxTraceSlots = 32;

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

/** The set of slots 0..n-1 (a whole trace of n slots). */
inline SlotSet
firstSlots(size_t n)
{
    return n >= sizeof(SlotSet) * 8 ? ~SlotSet(0) : slotBit(n) - 1;
}

/** Remove the lowest slot from a nonempty set and return it. */
inline int
popLowestSlot(SlotSet &set)
{
    const int slot = __builtin_ctz(set);
    set &= set - 1;
    return slot;
}

/** Identity of a trace: start pc + embedded conditional branch outcomes. */
struct TraceId
{
    Addr startPc = invalidAddr;
    uint32_t outcomes = 0;      //!< bit i = outcome of i-th cond branch
    uint8_t numBranches = 0;

    bool valid() const { return startPc != invalidAddr; }

    bool
    operator==(const TraceId &o) const
    {
        return startPc == o.startPc && outcomes == o.outcomes &&
            numBranches == o.numBranches;
    }

    bool operator!=(const TraceId &o) const { return !(*this == o); }

    uint64_t
    hash() const
    {
        uint64_t h = startPc * 0x9e3779b97f4a7c15ull;
        h ^= (static_cast<uint64_t>(outcomes) << 8) ^ numBranches;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
        return h;
    }

    std::string str() const;
};

/** Why a trace ended. */
enum class TraceEnd : uint8_t
{
    LENGTH,     //!< hit the maximum (padded) trace length
    INDIRECT,   //!< ends with a jr/callr/ret (default selection rule)
    NTB,        //!< ends after a predicted not-taken backward branch
    HALT,       //!< program end
    FG_DEFER    //!< next branch's FGCI region did not fit; deferred
};

const char *traceEndName(TraceEnd end);

/**
 * One instruction slot within a trace: the instruction, its selection
 * facts and its pre-decoded intra-trace dependences. Everything here
 * depends only on the trace, so every dispatch of it shares one copy.
 */
struct TraceSlot
{
    Addr pc = 0;
    Instruction inst;
    bool isCondBr = false;
    bool taken = false;     //!< selection-time outcome of this cond branch
    bool inRegion = false;  //!< inside an embedded FGCI region
    bool regionStart = false;   //!< branch that opened an embedded region
    Addr reconvPc = invalidAddr;    //!< region re-convergent pc (if start)

    /** @name Pre-decoded dependences (set by predecode()). */
    /// @{
    /** The ISA's readsRs1/readsRs2/writesReg of inst. */
    bool readsRs1 = false;
    bool readsRs2 = false;
    bool writesReg = false;
    int8_t dep1 = -1;   //!< slot producing rs1 in this trace, or -1
    int8_t dep2 = -1;   //!< slot producing rs2 in this trace, or -1
    SlotSet producers = 0;  //!< {dep1, dep2} without the -1s
    SlotSet consumers = 0;  //!< slots whose dep1 or dep2 is this slot
    /// @}

    /** rs1/rs2 is read from a global register (a live-in). */
    bool liveIn1() const { return readsRs1 && dep1 < 0; }
    bool liveIn2() const { return readsRs2 && dep2 < 0; }

    bool isLoad() const { return inst.op == Opcode::LD; }
    bool isStore() const { return inst.op == Opcode::ST; }
};

/** A live-out register of a trace and the slot that last writes it. */
struct TraceLiveOut
{
    ArchReg arch;
    int8_t slot;
};

/**
 * A selected trace. The slots are the actual instructions; accruedLen is
 * the *padded* length used by FGCI trace selection (>= slots.size()).
 *
 * Selection also pre-decodes the trace (predecode()): the per-slot
 * dependences above and the per-trace template below, which leave
 * dispatch only the renaming of live-ins and live-outs (Rotenberg et
 * al., MICRO-30, 1997).
 */
struct Trace
{
    TraceId id;
    std::vector<TraceSlot> slots;
    int accruedLen = 0;
    TraceEnd end = TraceEnd::LENGTH;
    /** Next pc after the trace when statically known (LENGTH, NTB,
     *  FG_DEFER, and taken-fallthrough cases); invalidAddr for INDIRECT
     *  and HALT. */
    Addr fallthroughPc = invalidAddr;
    /** Number of straight-line runs (basic-block fetch units). */
    int numBlocks = 0;

    /** @name Template (set by predecode()). */
    /// @{
    /** Registers the trace writes, with their last writers, in
     *  ascending architectural-register order (dispatch allocates
     *  physical registers in this order). */
    std::vector<TraceLiveOut> liveOuts;
    SlotSet liveInReaders = 0;  //!< slots reading at least one live-in
    SlotSet condBranches = 0;   //!< conditional branch slots
    SlotSet roots = 0;          //!< slots with no producer in the trace
    /// @}

    size_t size() const { return slots.size(); }
    bool endsInReturn() const;
    bool
    endsInIndirect() const
    {
        return end == TraceEnd::INDIRECT;
    }

    /** Multi-line disassembly for debugging. */
    std::string str() const;
};

/**
 * Fill in the pre-decoded dependences and the template of a trace whose
 * slots are final (TraceSelector::select calls it). Panics if the trace
 * exceeds maxTraceSlots.
 */
void predecode(Trace &tr);

} // namespace tproc

/** std::hash support so TraceId can key unordered containers. */
template <>
struct std::hash<tproc::TraceId>
{
    size_t
    operator()(const tproc::TraceId &id) const noexcept
    {
        return static_cast<size_t>(id.hash());
    }
};

#endif // TPROC_TRACE_TRACE_HH
