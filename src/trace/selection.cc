#include "trace/selection.hh"

#include "common/logging.hh"

namespace tproc
{

SelectionResult
TraceSelector::select(Addr start_pc, const BranchOracle &oracle,
                      ICache *icache, size_t charge_from_slot)
{
    SelectionResult res =
        selectSlots(start_pc, oracle, icache, charge_from_slot);
    predecode(res.trace);
    return res;
}

SelectionResult
TraceSelector::selectSlots(Addr start_pc, const BranchOracle &oracle,
                           ICache *icache, size_t charge_from_slot)
{
    SelectionResult res;
    Trace &tr = res.trace;
    tr.id.startPc = start_pc;

    int accrued = 0;
    bool embed_active = false;
    Addr embed_reconv = invalidAddr;
    Addr pc = start_pc;

    // Straight-line run tracking for instruction-cache fetch cost.
    Addr run_start = pc;
    size_t run_start_slot = 0;
    auto close_run = [&](Addr run_end) {
        if (run_end <= run_start)
            return;
        ++tr.numBlocks;
        if (icache && tr.slots.size() > charge_from_slot) {
            // Charge only the portion of the run at or past the charge
            // boundary (repair re-fetches only the new suffix).
            Addr charged_start = run_start;
            if (run_start_slot < charge_from_slot) {
                size_t skip = charge_from_slot - run_start_slot;
                charged_start = run_start + skip;
            }
            if (run_end > charged_start) {
                res.fetchCycles += icache->fetchCost(
                    charged_start, run_end - charged_start);
            }
        }
    };

    while (true) {
        const Instruction &inst = prog.fetch(pc);

        // FGCI selection: consult the BIT at forward conditional branches
        // outside any already-embedded region.
        bool region_start = false;
        Addr region_reconv = invalidAddr;
        if (params.fg && !embed_active && isForwardBranch(inst, pc)) {
            int scan = 0;
            const BitEntry &be = bit->lookup(prog, pc, &scan);
            res.scanCycles += scan;
            if (be.embeddable) {
                if (accrued + be.regionSize <= params.maxTraceLen) {
                    region_start = true;
                    region_reconv = pc + be.reconvOffset;
                } else if (accrued > 0) {
                    // Defer the branch to the next trace so its region's
                    // FGCI potential is not lost (Section 3.2).
                    tr.end = TraceEnd::FG_DEFER;
                    tr.fallthroughPc = pc;
                    break;
                }
                // accrued == 0 && regionSize > maxTraceLen cannot happen:
                // such regions are marked not embeddable by the scan.
            }
        }

        // Length accounting. Inside an embedded region the accrued length
        // is frozen (it was bumped by the full region size on entry).
        if (!embed_active && !region_start) {
            if (accrued + 1 > params.maxTraceLen) {
                tr.end = TraceEnd::LENGTH;
                tr.fallthroughPc = pc;
                break;
            }
            accrued += 1;
        } else if (region_start) {
            const BitEntry &be = *bit->probe(pc);
            accrued += be.regionSize;
            embed_active = true;
            embed_reconv = region_reconv;
        }

        // Append the slot.
        TraceSlot slot;
        slot.pc = pc;
        slot.inst = inst;
        slot.isCondBr = isCondBranch(inst.op);
        slot.inRegion = embed_active;
        slot.regionStart = region_start;
        slot.reconvPc = region_reconv;
        tr.slots.push_back(slot);

        // Determine the next pc.
        Addr next_pc = pc + 1;
        bool transfers = false;     // control actually leaves pc+1
        bool taken = false;
        if (slot.isCondBr) {
            panic_if(tr.id.numBranches >= 32,
                     "trace with more than 32 conditional branches");
            taken = oracle(tr.id.numBranches, pc, inst, embed_active);
            tr.slots.back().taken = taken;
            if (taken)
                tr.id.outcomes |= 1u << tr.id.numBranches;
            ++tr.id.numBranches;
            if (taken) {
                next_pc = static_cast<Addr>(inst.imm);
                transfers = true;
            }
        } else if (isDirectJump(inst.op)) {
            next_pc = static_cast<Addr>(inst.imm);
            transfers = true;
        } else if (isIndirect(inst.op)) {
            close_run(pc + 1);
            tr.end = TraceEnd::INDIRECT;
            tr.fallthroughPc = invalidAddr;
            tr.accruedLen = accrued;
            return res;
        } else if (inst.op == Opcode::HALT) {
            close_run(pc + 1);
            tr.end = TraceEnd::HALT;
            tr.fallthroughPc = invalidAddr;
            tr.accruedLen = accrued;
            return res;
        }

        // ntb: end the trace after a predicted not-taken backward branch,
        // exposing the loop exit as a trace boundary (Section 4.1).
        // Backward branches never occur inside embedded regions.
        if (params.ntb && slot.isCondBr && isBackwardBranch(inst, pc) &&
            !taken) {
            close_run(pc + 1);
            tr.end = TraceEnd::NTB;
            tr.fallthroughPc = pc + 1;
            tr.accruedLen = accrued;
            return res;
        }

        if (transfers) {
            close_run(pc + 1);
            run_start = next_pc;
            run_start_slot = tr.slots.size();
        }

        pc = next_pc;

        // Region exit: accrual resumes at the re-convergent point.
        if (embed_active && pc == embed_reconv) {
            embed_active = false;
            embed_reconv = invalidAddr;
        }
    }

    // Ended *before* appending the instruction at pc (LENGTH / FG_DEFER).
    close_run(pc);
    tr.accruedLen = accrued;
    return res;
}

BranchOracle
makeIdOracle(TraceId id)
{
    return [id](int branch_idx, Addr, const Instruction &, bool) {
        if (branch_idx < id.numBranches)
            return (id.outcomes >> branch_idx & 1) != 0;
        return false;
    };
}

} // namespace tproc
