#include "program/builder.hh"

#include "common/logging.hh"

namespace tproc
{

ProgramBuilder::ProgramBuilder(std::string name)
{
    prog.name = std::move(name);
}

ProgramBuilder::Label
ProgramBuilder::newLabel()
{
    Label lab;
    lab.id = static_cast<int>(labelAddrs.size());
    labelAddrs.push_back(invalidAddr);
    return lab;
}

void
ProgramBuilder::bind(Label lab)
{
    panic_if(lab.id < 0 || lab.id >= static_cast<int>(labelAddrs.size()),
             "bind: bad label");
    panic_if(labelAddrs[lab.id] != invalidAddr, "bind: label bound twice");
    labelAddrs[lab.id] = here();
}

Addr
ProgramBuilder::labelAddr(Label lab) const
{
    panic_if(lab.id < 0 || lab.id >= static_cast<int>(labelAddrs.size()) ||
             labelAddrs[lab.id] == invalidAddr,
             "labelAddr: label not bound");
    return labelAddrs[lab.id];
}

void
ProgramBuilder::emit(Instruction inst)
{
    panic_if(finished, "emit after finish()");
    prog.code.push_back(inst);
}

void
ProgramBuilder::emitBranch(Opcode op, ArchReg rs1, ArchReg rs2, Label target)
{
    fixups.push_back({here(), target.id});
    emit({op, 0, rs1, rs2, 0});
}

void ProgramBuilder::nop() { emit({Opcode::NOP, 0, 0, 0, 0}); }
void ProgramBuilder::halt() { emit({Opcode::HALT, 0, 0, 0, 0}); }

void
ProgramBuilder::add(ArchReg rd, ArchReg rs1, ArchReg rs2)
{
    emit({Opcode::ADD, rd, rs1, rs2, 0});
}

void
ProgramBuilder::sub(ArchReg rd, ArchReg rs1, ArchReg rs2)
{
    emit({Opcode::SUB, rd, rs1, rs2, 0});
}

void
ProgramBuilder::mul(ArchReg rd, ArchReg rs1, ArchReg rs2)
{
    emit({Opcode::MUL, rd, rs1, rs2, 0});
}

void
ProgramBuilder::div(ArchReg rd, ArchReg rs1, ArchReg rs2)
{
    emit({Opcode::DIVX, rd, rs1, rs2, 0});
}

void
ProgramBuilder::and_(ArchReg rd, ArchReg rs1, ArchReg rs2)
{
    emit({Opcode::AND, rd, rs1, rs2, 0});
}

void
ProgramBuilder::or_(ArchReg rd, ArchReg rs1, ArchReg rs2)
{
    emit({Opcode::OR, rd, rs1, rs2, 0});
}

void
ProgramBuilder::xor_(ArchReg rd, ArchReg rs1, ArchReg rs2)
{
    emit({Opcode::XOR, rd, rs1, rs2, 0});
}

void
ProgramBuilder::sll(ArchReg rd, ArchReg rs1, ArchReg rs2)
{
    emit({Opcode::SLL, rd, rs1, rs2, 0});
}

void
ProgramBuilder::srl(ArchReg rd, ArchReg rs1, ArchReg rs2)
{
    emit({Opcode::SRL, rd, rs1, rs2, 0});
}

void
ProgramBuilder::sra(ArchReg rd, ArchReg rs1, ArchReg rs2)
{
    emit({Opcode::SRA, rd, rs1, rs2, 0});
}

void
ProgramBuilder::slt(ArchReg rd, ArchReg rs1, ArchReg rs2)
{
    emit({Opcode::SLT, rd, rs1, rs2, 0});
}

void
ProgramBuilder::sltu(ArchReg rd, ArchReg rs1, ArchReg rs2)
{
    emit({Opcode::SLTU, rd, rs1, rs2, 0});
}

void
ProgramBuilder::addi(ArchReg rd, ArchReg rs1, int64_t imm)
{
    emit({Opcode::ADDI, rd, rs1, 0, imm});
}

void
ProgramBuilder::andi(ArchReg rd, ArchReg rs1, int64_t imm)
{
    emit({Opcode::ANDI, rd, rs1, 0, imm});
}

void
ProgramBuilder::ori(ArchReg rd, ArchReg rs1, int64_t imm)
{
    emit({Opcode::ORI, rd, rs1, 0, imm});
}

void
ProgramBuilder::xori(ArchReg rd, ArchReg rs1, int64_t imm)
{
    emit({Opcode::XORI, rd, rs1, 0, imm});
}

void
ProgramBuilder::slli(ArchReg rd, ArchReg rs1, int64_t imm)
{
    emit({Opcode::SLLI, rd, rs1, 0, imm});
}

void
ProgramBuilder::srli(ArchReg rd, ArchReg rs1, int64_t imm)
{
    emit({Opcode::SRLI, rd, rs1, 0, imm});
}

void
ProgramBuilder::slti(ArchReg rd, ArchReg rs1, int64_t imm)
{
    emit({Opcode::SLTI, rd, rs1, 0, imm});
}

void
ProgramBuilder::lui(ArchReg rd, int64_t imm)
{
    emit({Opcode::LUI, rd, 0, 0, imm});
}

void
ProgramBuilder::li(ArchReg rd, int64_t imm)
{
    // LUI semantics in this ISA simply set rd = imm, so li is an alias.
    lui(rd, imm);
}

void
ProgramBuilder::mov(ArchReg rd, ArchReg rs)
{
    add(rd, rs, regZero);
}

void
ProgramBuilder::ld(ArchReg rd, ArchReg rs1, int64_t imm)
{
    emit({Opcode::LD, rd, rs1, 0, imm});
}

void
ProgramBuilder::st(ArchReg rs2, ArchReg rs1, int64_t imm)
{
    emit({Opcode::ST, 0, rs1, rs2, imm});
}

void
ProgramBuilder::beq(ArchReg rs1, ArchReg rs2, Label target)
{
    emitBranch(Opcode::BEQ, rs1, rs2, target);
}

void
ProgramBuilder::bne(ArchReg rs1, ArchReg rs2, Label target)
{
    emitBranch(Opcode::BNE, rs1, rs2, target);
}

void
ProgramBuilder::blt(ArchReg rs1, ArchReg rs2, Label target)
{
    emitBranch(Opcode::BLT, rs1, rs2, target);
}

void
ProgramBuilder::bge(ArchReg rs1, ArchReg rs2, Label target)
{
    emitBranch(Opcode::BGE, rs1, rs2, target);
}

void
ProgramBuilder::jmp(Label target)
{
    fixups.push_back({here(), target.id});
    emit({Opcode::JMP, 0, 0, 0, 0});
}

void
ProgramBuilder::call(Label target, ArchReg rd)
{
    fixups.push_back({here(), target.id});
    emit({Opcode::CALL, rd, 0, 0, 0});
}

void
ProgramBuilder::jr(ArchReg rs1)
{
    emit({Opcode::JR, 0, rs1, 0, 0});
}

void
ProgramBuilder::callr(ArchReg rs1, ArchReg rd)
{
    emit({Opcode::CALLR, rd, rs1, 0, 0});
}

void
ProgramBuilder::ret(ArchReg rs1)
{
    emit({Opcode::RET, 0, rs1, 0, 0});
}

void
ProgramBuilder::data(Addr addr, int64_t value)
{
    prog.dataInit.emplace_back(addr, value);
}

Program
ProgramBuilder::finish()
{
    panic_if(finished, "finish() called twice");
    finished = true;
    for (const auto &f : fixups) {
        panic_if(labelAddrs[f.labelId] == invalidAddr,
                 "finish: unbound label %d (used at pc %llu)", f.labelId,
                 static_cast<unsigned long long>(f.pc));
        prog.code[f.pc].imm =
            static_cast<int64_t>(labelAddrs[f.labelId]);
    }
    normalizeDataImage(prog.dataInit);
    return std::move(prog);
}

} // namespace tproc
