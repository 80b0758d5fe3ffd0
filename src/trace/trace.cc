#include "trace/trace.hh"

#include <array>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"
#include "isa/disasm.hh"

namespace tproc
{

std::string
TraceId::str() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "T[%llu:%u/%u]",
                  static_cast<unsigned long long>(startPc), outcomes,
                  numBranches);
    return buf;
}

const char *
traceEndName(TraceEnd end)
{
    switch (end) {
      case TraceEnd::LENGTH: return "length";
      case TraceEnd::INDIRECT: return "indirect";
      case TraceEnd::NTB: return "ntb";
      case TraceEnd::HALT: return "halt";
      case TraceEnd::FG_DEFER: return "fg-defer";
    }
    return "?";
}

void
predecode(Trace &tr)
{
    // The slot sets are one word wide, and selection never builds a
    // trace longer than validate() admits.
    panic_if(tr.slots.size() > static_cast<size_t>(maxTraceSlots),
             "trace of %zu instructions exceeds the %d-slot cap",
             tr.slots.size(), maxTraceSlots);

    std::array<int8_t, numArchRegs> last_writer;
    last_writer.fill(-1);
    tr.liveInReaders = tr.condBranches = tr.roots = 0;
    for (size_t i = 0; i < tr.slots.size(); ++i) {
        TraceSlot &s = tr.slots[i];
        s.readsRs1 = readsRs1(s.inst);
        s.readsRs2 = readsRs2(s.inst);
        s.writesReg = writesReg(s.inst);
        s.dep1 = s.readsRs1 ? last_writer[s.inst.rs1] : int8_t(-1);
        s.dep2 = s.readsRs2 ? last_writer[s.inst.rs2] : int8_t(-1);
        s.producers = s.consumers = 0;
        for (int dep : {s.dep1, s.dep2}) {
            if (dep >= 0) {
                s.producers |= slotBit(dep);
                tr.slots[dep].consumers |= slotBit(i);
            }
        }
        if (s.liveIn1() || s.liveIn2())
            tr.liveInReaders |= slotBit(i);
        if (s.isCondBr)
            tr.condBranches |= slotBit(i);
        if (!s.producers)
            tr.roots |= slotBit(i);
        if (s.writesReg)
            last_writer[s.inst.rd] = static_cast<int8_t>(i);
    }

    tr.liveOuts.clear();
    for (int a = 0; a < numArchRegs; ++a) {
        if (last_writer[a] >= 0)
            tr.liveOuts.push_back({static_cast<ArchReg>(a), last_writer[a]});
    }
}

bool
Trace::endsInReturn() const
{
    return !slots.empty() && isReturn(slots.back().inst.op);
}

std::string
Trace::str() const
{
    std::ostringstream os;
    os << id.str() << " len=" << slots.size() << " accrued=" << accruedLen
       << " end=" << traceEndName(end) << '\n';
    for (const auto &s : slots) {
        os << "  " << disassemble(s.pc, s.inst);
        if (s.isCondBr)
            os << (s.taken ? "  [T]" : "  [N]");
        if (s.regionStart)
            os << "  region->"
               << static_cast<unsigned long long>(s.reconvPc);
        os << '\n';
    }
    return os.str();
}

} // namespace tproc
