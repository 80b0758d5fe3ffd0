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

#include <cstdint>
#include <string>
#include <vector>

#include "isa/instruction.hh"

namespace tproc
{

/**
 * Longest trace the simulator can run, in instructions. TraceId holds
 * one outcome bit per conditional branch in a 32-bit word, and a PE's
 * scheduling sets hold one bit per slot in a 32-bit word.
 * ProcessorConfig::validate() rejects a longer selection.maxTraceLen.
 */
constexpr int maxTraceSlots = 32;

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

/** One instruction slot within a trace. */
struct TraceSlot
{
    Addr pc = 0;
    Instruction inst;
    bool isCondBr = false;
    bool taken = false;     //!< selection-time outcome of this cond branch
    bool inRegion = false;  //!< inside an embedded FGCI region
    bool regionStart = false;   //!< branch that opened an embedded region
    Addr reconvPc = invalidAddr;    //!< region re-convergent pc (if start)
};

/**
 * A selected trace. The slots are the actual instructions; accruedLen is
 * the *padded* length used by FGCI trace selection (>= slots.size()).
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
