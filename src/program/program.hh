/**
 * @file
 * A static program: instruction memory plus initial data memory image.
 *
 * The data image is flat: (word address, value) pairs sorted by address,
 * one entry per word. Producers (ProgramBuilder::data(), the trace
 * decoders) append in write order and then call normalizeDataImage(),
 * under which the last write to an address wins, the rule a
 * word-addressed map's assignment gave. Consumers (SparseMemory::load,
 * the trace encoders) walk it in order without sorting a copy.
 */

#ifndef TPROC_PROGRAM_PROGRAM_HH
#define TPROC_PROGRAM_PROGRAM_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "isa/instruction.hh"

namespace tproc
{

/** Initial data memory: (word address, value), sorted by address, one
 *  entry per word once normalised. */
using DataImage = std::vector<std::pair<Addr, int64_t>>;

/** Sort image by address (stable) and keep only the last entry written
 *  for each address. Already sorted, unique images are left alone. */
void normalizeDataImage(DataImage &image);

/**
 * An executable tproc program. Instruction space is word addressed by
 * instruction index; data space is a separate word-addressed space whose
 * initial contents are given by dataInit.
 */
class Program
{
  public:
    std::string name;
    std::vector<Instruction> code;
    /** Initial data memory contents, normalised (see DataImage). */
    DataImage dataInit;
    /** Entry point (instruction index). */
    Addr entry = 0;

    size_t size() const { return code.size(); }

    /** Fetch an instruction; out-of-range returns HALT (safety net for
     *  wrong-path fetch). */
    const Instruction &fetch(Addr pc) const;

    /** Pretty-print the whole program (debugging). */
    std::string disassembly() const;

  private:
    static const Instruction haltInst;
};

} // namespace tproc

#endif // TPROC_PROGRAM_PROGRAM_HH
