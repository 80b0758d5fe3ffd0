#include "emulator/emulator.hh"

#include "common/logging.hh"

namespace tproc
{

int64_t
evalAlu(Opcode op, int64_t a, int64_t b, int64_t imm)
{
    // Adds, subtracts and multiplies are done in uint64_t, where
    // overflow wraps, and give the two's-complement bits.
    const auto ua = static_cast<uint64_t>(a);
    const auto ub = static_cast<uint64_t>(b);
    switch (op) {
      case Opcode::ADD: return static_cast<int64_t>(ua + ub);
      case Opcode::SUB: return static_cast<int64_t>(ua - ub);
      case Opcode::MUL: return static_cast<int64_t>(ua * ub);
      case Opcode::DIVX:
        // INT64_MIN / -1 overflows (and traps on x86); it wraps too.
        if (b == 0)
            return 0;
        return b == -1 ? static_cast<int64_t>(0 - ua) : a / b;
      case Opcode::AND: return a & b;
      case Opcode::OR: return a | b;
      case Opcode::XOR: return a ^ b;
      case Opcode::SLL: return static_cast<int64_t>(ua << (b & 63));
      case Opcode::SRL: return static_cast<int64_t>(ua >> (b & 63));
      case Opcode::SRA: return a >> (b & 63);
      case Opcode::SLT: return a < b ? 1 : 0;
      case Opcode::SLTU: return ua < ub ? 1 : 0;
      case Opcode::ADDI:
        return static_cast<int64_t>(ua + static_cast<uint64_t>(imm));
      case Opcode::ANDI: return a & imm;
      case Opcode::ORI: return a | imm;
      case Opcode::XORI: return a ^ imm;
      case Opcode::SLLI: return static_cast<int64_t>(ua << (imm & 63));
      case Opcode::SRLI: return static_cast<int64_t>(ua >> (imm & 63));
      case Opcode::SLTI: return a < imm ? 1 : 0;
      case Opcode::LUI: return imm;
      default:
        // Unreachable by construction: dispatch routes only ALU opcodes
        // here, so this arm is an ISA-table bug, not an input error.
        // NOLINT-tproc-next-line(no-bare-panic)
        panic("evalAlu: non-ALU opcode %s", opcodeName(op));
    }
}

bool
evalBranch(Opcode op, int64_t a, int64_t b)
{
    switch (op) {
      case Opcode::BEQ: return a == b;
      case Opcode::BNE: return a != b;
      case Opcode::BLT: return a < b;
      case Opcode::BGE: return a >= b;
      default:
        // Unreachable by construction, as in evalAlu: the branch
        // evaluator is only handed branch opcodes.
        // NOLINT-tproc-next-line(no-bare-panic)
        panic("evalBranch: non-branch opcode %s", opcodeName(op));
    }
}

std::unique_ptr<SparseMemory::Page>
SparseMemory::newPage(Addr addr)
{
    if (pages.size() > maxPages) {
        // Leave no empty slot behind for read() to dereference.
        pages.erase(addr >> pageBits);
        throw MemoryBudgetError(
            "data memory exceeds its page budget of " +
            std::to_string(maxPages) + " pages (" +
            std::to_string(maxPages * sizeof(Page) >> 20) + " MiB)");
    }
    return std::make_unique<Page>();
}

Emulator::Emulator(const Program &prog_) : prog(prog_), curPc(prog_.entry)
{
    mem.load(prog.dataInit);
}

StepResult
Emulator::step()
{
    panic_if(isHalted, "Emulator::step after halt");

    StepResult res;
    res.pc = curPc;
    res.inst = prog.fetch(curPc);
    const Instruction &inst = res.inst;
    res.nextPc = curPc + 1;

    switch (inst.op) {
      case Opcode::NOP:
        break;
      case Opcode::HALT:
        res.halted = true;
        isHalted = true;
        res.nextPc = curPc;
        break;
      case Opcode::LD:
        res.isMem = true;
        res.memAddr = effectiveAddr(regs[inst.rs1], inst.imm);
        res.memValue = mem.read(res.memAddr);
        if (inst.rd != regZero) {
            res.hasDest = true;
            res.destValue = res.memValue;
            regs[inst.rd] = res.memValue;
        }
        break;
      case Opcode::ST:
        res.isMem = true;
        res.memAddr = effectiveAddr(regs[inst.rs1], inst.imm);
        res.memValue = regs[inst.rs2];
        mem.write(res.memAddr, res.memValue);
        break;
      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
      case Opcode::BGE:
        res.taken = evalBranch(inst.op, regs[inst.rs1], regs[inst.rs2]);
        if (res.taken)
            res.nextPc = static_cast<Addr>(inst.imm);
        break;
      case Opcode::JMP:
        res.taken = true;
        res.nextPc = static_cast<Addr>(inst.imm);
        break;
      case Opcode::CALL:
        res.taken = true;
        if (inst.rd != regZero) {
            res.hasDest = true;
            res.destValue = static_cast<int64_t>(curPc + 1);
            regs[inst.rd] = res.destValue;
        }
        res.nextPc = static_cast<Addr>(inst.imm);
        break;
      case Opcode::JR: case Opcode::RET:
        res.taken = true;
        res.nextPc = static_cast<Addr>(regs[inst.rs1]);
        break;
      case Opcode::CALLR:
        res.taken = true;
        if (inst.rd != regZero) {
            res.hasDest = true;
            res.destValue = static_cast<int64_t>(curPc + 1);
        }
        res.nextPc = static_cast<Addr>(regs[inst.rs1]);
        if (inst.rd != regZero)
            regs[inst.rd] = res.destValue;
        break;
      default:
        // ALU operation.
        if (inst.rd != regZero) {
            res.hasDest = true;
            res.destValue = evalAlu(inst.op, regs[inst.rs1], regs[inst.rs2],
                                    inst.imm);
            regs[inst.rd] = res.destValue;
        }
        break;
    }

    regs[regZero] = 0;
    curPc = res.nextPc;
    ++icount;
    return res;
}

uint64_t
Emulator::run(uint64_t max_insts)
{
    uint64_t n = 0;
    while (!isHalted && n < max_insts) {
        step();
        ++n;
    }
    return n;
}

} // namespace tproc
