/**
 * @file
 * Label-based assembler DSL for constructing tproc programs in C++.
 *
 * Forward references are supported: request a label with newLabel(), emit
 * branches to it, and bind() it later; fixups are resolved in finish().
 * Data words are appended in call order and normalised in finish(), so
 * data() may be called in any address order and a repeated address
 * keeps its last value.
 */

#ifndef TPROC_PROGRAM_BUILDER_HH
#define TPROC_PROGRAM_BUILDER_HH

#include <string>
#include <vector>

#include "program/program.hh"

namespace tproc
{

/**
 * Incrementally builds a Program. Emit methods are named after mnemonics.
 */
class ProgramBuilder
{
  public:
    /** An abstract code label (index into the fixup table). */
    struct Label
    {
        int id = -1;
    };

    explicit ProgramBuilder(std::string name);

    /** @name Labels. */
    /// @{
    Label newLabel();
    /** Bind lab to the current end of code. */
    void bind(Label lab);
    /** Address a bound label resolves to (only valid after bind). */
    Addr labelAddr(Label lab) const;
    /// @}

    /** Current emission address. */
    Addr here() const { return prog.code.size(); }

    /** @name Instruction emission. */
    /// @{
    void nop();
    void halt();
    void add(ArchReg rd, ArchReg rs1, ArchReg rs2);
    void sub(ArchReg rd, ArchReg rs1, ArchReg rs2);
    void mul(ArchReg rd, ArchReg rs1, ArchReg rs2);
    void div(ArchReg rd, ArchReg rs1, ArchReg rs2);
    void and_(ArchReg rd, ArchReg rs1, ArchReg rs2);
    void or_(ArchReg rd, ArchReg rs1, ArchReg rs2);
    void xor_(ArchReg rd, ArchReg rs1, ArchReg rs2);
    void sll(ArchReg rd, ArchReg rs1, ArchReg rs2);
    void srl(ArchReg rd, ArchReg rs1, ArchReg rs2);
    void sra(ArchReg rd, ArchReg rs1, ArchReg rs2);
    void slt(ArchReg rd, ArchReg rs1, ArchReg rs2);
    void sltu(ArchReg rd, ArchReg rs1, ArchReg rs2);
    void addi(ArchReg rd, ArchReg rs1, int64_t imm);
    void andi(ArchReg rd, ArchReg rs1, int64_t imm);
    void ori(ArchReg rd, ArchReg rs1, int64_t imm);
    void xori(ArchReg rd, ArchReg rs1, int64_t imm);
    void slli(ArchReg rd, ArchReg rs1, int64_t imm);
    void srli(ArchReg rd, ArchReg rs1, int64_t imm);
    void slti(ArchReg rd, ArchReg rs1, int64_t imm);
    void lui(ArchReg rd, int64_t imm);
    void li(ArchReg rd, int64_t imm);   //!< pseudo: load immediate
    void mov(ArchReg rd, ArchReg rs);   //!< pseudo: add rd, rs, r0
    void ld(ArchReg rd, ArchReg rs1, int64_t imm);
    void st(ArchReg rs2, ArchReg rs1, int64_t imm);
    void beq(ArchReg rs1, ArchReg rs2, Label target);
    void bne(ArchReg rs1, ArchReg rs2, Label target);
    void blt(ArchReg rs1, ArchReg rs2, Label target);
    void bge(ArchReg rs1, ArchReg rs2, Label target);
    void jmp(Label target);
    void call(Label target, ArchReg rd = regRa);
    void jr(ArchReg rs1);
    void callr(ArchReg rs1, ArchReg rd = regRa);
    void ret(ArchReg rs1 = regRa);
    /// @}

    /** Initialize a data memory word (a later call for the same address
     *  wins). */
    void data(Addr addr, int64_t value);

    /** Resolve all fixups and return the finished program. The builder
     *  must not be reused afterwards. */
    Program finish();

  private:
    void emit(Instruction inst);
    void emitBranch(Opcode op, ArchReg rs1, ArchReg rs2, Label target);

    Program prog;
    std::vector<Addr> labelAddrs;           // labelAddrs[id] or invalidAddr
    struct Fixup { Addr pc; int labelId; };
    std::vector<Fixup> fixups;
    bool finished = false;
};

} // namespace tproc

#endif // TPROC_PROGRAM_BUILDER_HH
