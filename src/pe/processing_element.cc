#include "pe/processing_element.hh"

#include <array>

#include "common/logging.hh"

namespace tproc
{

namespace
{

/**
 * Point every live-in source of t at its mapping in map. Other sources
 * stay invalidPhysReg. @return the slots whose source names changed.
 */
SlotSet
renameLiveIns(InFlightTrace &t, const RenameMap &map)
{
    SlotSet changed = 0;
    for (SlotSet todo = t.trace->liveInReaders; todo;) {
        const int i = popLowestSlot(todo);
        DynSlot &d = t.slots[i];
        const TraceSlot &c = t.code[i];
        if (c.liveIn1() && map[c.inst.rs1] != d.src1) {
            d.src1 = map[c.inst.rs1];
            changed |= slotBit(i);
        }
        if (c.liveIn2() && map[c.inst.rs2] != d.src2) {
            d.src2 = map[c.inst.rs2];
            changed |= slotBit(i);
        }
    }
    return changed;
}

} // anonymous namespace

void
InFlightTrace::resetSchedule()
{
    completed = inFlight = wake = 0;
    nextDoneAt = neverDone;
    for (size_t i = 0; i < slots.size(); ++i) {
        const DynSlot &d = slots[i];
        if (d.completed)
            completed |= slotBit(i);
        else if (!d.issued)
            wake |= slotBit(i);
        else if (!d.waitingBus)
            markInFlight(i, d.execDoneAt);
    }
}

void
initInFlightTrace(InFlightTrace &t, TraceUid uid,
                  std::shared_ptr<const Trace> trace, RenameMap &map,
                  PhysRegFile &prf)
{
    t.uid = uid;
    t.mapBefore = map;
    t.peId = -1;
    t.logicalPos = -1;

    // assign() (not resize) so slots recycled from the previous occupant
    // of this pool entry start from default dynamic state; the vector
    // keeps its capacity.
    t.slots.assign(trace->slots.size(), DynSlot{});
    t.trace = std::move(trace);
    t.code = t.trace->slots.data();
    renameLiveIns(t, map);

    // Allocate global physical registers for live-outs and install them.
    t.liveOuts.clear();
    for (const TraceLiveOut &lo : t.trace->liveOuts) {
        const PhysReg p = prf.alloc();
        t.slots[lo.slot].dest = p;
        t.liveOuts.push_back({lo.arch, p, lo.slot});
        map[lo.arch] = p;
    }

    // Nothing has issued: only the slots without a local producer can.
    t.completed = t.inFlight = 0;
    t.wake = t.trace->roots;
    t.nextDoneAt = neverDone;
}

std::unique_ptr<InFlightTrace>
makeInFlightTrace(TraceUid uid, std::shared_ptr<const Trace> trace,
                  RenameMap &map, PhysRegFile &prf)
{
    auto t = std::make_unique<InFlightTrace>();
    initInFlightTrace(*t, uid, std::move(trace), map, prf);
    return t;
}

void
repairInFlightTrace(InFlightTrace &t, std::shared_ptr<const Trace> new_trace,
                    size_t prefix_len, RenameMap &map, PhysRegFile &prf,
                    Cycle now, std::vector<PhysReg> &deferred_free)
{
    panic_if(prefix_len > new_trace->slots.size(),
             "repair: prefix longer than repaired trace (%zu > %zu)",
             prefix_len, new_trace->slots.size());

    // Remember old live-out assignments keyed by (slot, arch).
    std::array<PhysReg, numArchRegs> old_phys;
    std::array<int, numArchRegs> old_slot;
    old_phys.fill(invalidPhysReg);
    old_slot.fill(-1);
    for (const auto &lo : t.liveOuts) {
        old_phys[lo.arch] = lo.phys;
        old_slot[lo.arch] = lo.slot;
    }

    // Verify selection determinism: the repaired trace must share the
    // instruction prefix (outcome flags may differ only on the repaired
    // branch, which is the last prefix slot).
    for (size_t i = 0; i < prefix_len; ++i) {
        panic_if(new_trace->slots[i].pc != t.code[i].pc ||
                 !(new_trace->slots[i].inst == t.code[i].inst),
                 "repair: prefix mismatch at slot %zu", i);
    }

    // The prefix keeps its dynamic state; the suffix starts fresh.
    t.slots.resize(new_trace->slots.size());
    std::fill(t.slots.begin() + prefix_len, t.slots.end(), DynSlot{});
    t.trace = std::move(new_trace);
    t.code = t.trace->slots.data();
    renameLiveIns(t, map);

    // Destinations are reassigned from scratch below; prefix slots that
    // lost their live-out status must not keep publishing to stale regs.
    for (auto &d : t.slots)
        d.dest = invalidPhysReg;

    // Reassign live-outs: a prefix last-writer that was already the
    // live-out for the same register keeps its physical register ("the
    // prefix is untouched"); everything else allocates fresh.
    t.liveOuts.clear();
    std::array<bool, numArchRegs> reused;
    reused.fill(false);
    for (const TraceLiveOut &lo : t.trace->liveOuts) {
        const int a = lo.arch;
        const int w = lo.slot;
        PhysReg p;
        if (w == old_slot[a] &&
            static_cast<size_t>(w) < prefix_len) {
            p = old_phys[a];    // same slot still produces this register
            reused[a] = true;
        } else {
            p = prf.alloc();
            // A prefix slot that newly became a live-out and has already
            // completed must publish its value now; nothing will complete
            // again to write the register.
            if (static_cast<size_t>(w) < prefix_len &&
                t.slots[w].completed) {
                prf.write(p, t.slots[w].value, now + 2);
            }
        }
        t.slots[w].dest = p;
        t.liveOuts.push_back({static_cast<ArchReg>(a), p, w});
        map[a] = p;
    }

    // Free old live-outs that were not carried over (deferred until the
    // re-dispatch pass has re-pointed every consumer).
    for (int a = 0; a < numArchRegs; ++a) {
        if (old_phys[a] != invalidPhysReg && !reused[a])
            deferred_free.push_back(old_phys[a]);
    }

    // The slot array and the deps were rebuilt wholesale.
    t.resetSchedule();
}

SlotSet
redispatchInFlightTrace(InFlightTrace &t, RenameMap &map)
{
    t.mapBefore = map;
    const SlotSet changed = renameLiveIns(t, map);

    // Live-outs keep their mappings (Section 2.2.1).
    for (const auto &lo : t.liveOuts)
        map[lo.arch] = lo.phys;

    return changed;
}

} // namespace tproc
