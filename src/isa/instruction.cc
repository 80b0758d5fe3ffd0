#include "isa/instruction.hh"

#include "common/logging.hh"

namespace tproc
{

bool
isCondBranch(Opcode op)
{
    switch (op) {
      case Opcode::BEQ:
      case Opcode::BNE:
      case Opcode::BLT:
      case Opcode::BGE:
        return true;
      default:
        return false;
    }
}

bool
isIndirect(Opcode op)
{
    return op == Opcode::JR || op == Opcode::CALLR || op == Opcode::RET;
}

bool
isCall(Opcode op)
{
    return op == Opcode::CALL || op == Opcode::CALLR;
}

bool
isReturn(Opcode op)
{
    return op == Opcode::RET;
}

bool
isDirectJump(Opcode op)
{
    return op == Opcode::JMP || op == Opcode::CALL;
}

bool
isLoad(Opcode op)
{
    return op == Opcode::LD;
}

bool
isStore(Opcode op)
{
    return op == Opcode::ST;
}

bool
isControl(Opcode op)
{
    return isCondBranch(op) || isDirectJump(op) || isIndirect(op);
}

bool
writesReg(const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::ADD: case Opcode::SUB: case Opcode::MUL:
      case Opcode::DIVX: case Opcode::AND: case Opcode::OR:
      case Opcode::XOR: case Opcode::SLL: case Opcode::SRL:
      case Opcode::SRA: case Opcode::SLT: case Opcode::SLTU:
      case Opcode::ADDI: case Opcode::ANDI: case Opcode::ORI:
      case Opcode::XORI: case Opcode::SLLI: case Opcode::SRLI:
      case Opcode::SLTI: case Opcode::LUI:
      case Opcode::LD:
      case Opcode::CALL: case Opcode::CALLR:
        return inst.rd != regZero;
      default:
        return false;
    }
}

bool
readsRs1(const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::NOP: case Opcode::HALT: case Opcode::LUI:
      case Opcode::JMP: case Opcode::CALL:
        return false;
      default:
        return true;
    }
}

bool
readsRs2(const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::ADD: case Opcode::SUB: case Opcode::MUL:
      case Opcode::DIVX: case Opcode::AND: case Opcode::OR:
      case Opcode::XOR: case Opcode::SLL: case Opcode::SRL:
      case Opcode::SRA: case Opcode::SLT: case Opcode::SLTU:
      case Opcode::ST:
      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
      case Opcode::BGE:
        return true;
      default:
        return false;
    }
}

int
execLatency(Opcode op)
{
    switch (op) {
      case Opcode::MUL:
        return 5;   // MIPS R10000 integer multiply
      case Opcode::DIVX:
        return 20;  // MIPS R10000 integer divide (approx.)
      case Opcode::LD:
      case Opcode::ST:
        return 1;   // address generation; memory access modeled separately
      default:
        return 1;
    }
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::NOP: return "nop";
      case Opcode::HALT: return "halt";
      case Opcode::ADD: return "add";
      case Opcode::SUB: return "sub";
      case Opcode::MUL: return "mul";
      case Opcode::DIVX: return "div";
      case Opcode::AND: return "and";
      case Opcode::OR: return "or";
      case Opcode::XOR: return "xor";
      case Opcode::SLL: return "sll";
      case Opcode::SRL: return "srl";
      case Opcode::SRA: return "sra";
      case Opcode::SLT: return "slt";
      case Opcode::SLTU: return "sltu";
      case Opcode::ADDI: return "addi";
      case Opcode::ANDI: return "andi";
      case Opcode::ORI: return "ori";
      case Opcode::XORI: return "xori";
      case Opcode::SLLI: return "slli";
      case Opcode::SRLI: return "srli";
      case Opcode::SLTI: return "slti";
      case Opcode::LUI: return "lui";
      case Opcode::LD: return "ld";
      case Opcode::ST: return "st";
      case Opcode::BEQ: return "beq";
      case Opcode::BNE: return "bne";
      case Opcode::BLT: return "blt";
      case Opcode::BGE: return "bge";
      case Opcode::JMP: return "jmp";
      case Opcode::CALL: return "call";
      case Opcode::JR: return "jr";
      case Opcode::CALLR: return "callr";
      case Opcode::RET: return "ret";
      default:
        // opcodeName formats panic and trace messages itself; throwing
        // from inside error formatting would mask the first failure.
        // NOLINT-tproc-next-line(no-bare-panic)
        panic("opcodeName: bad opcode %d", static_cast<int>(op));
    }
}

} // namespace tproc
