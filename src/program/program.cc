#include "program/program.hh"

#include <algorithm>
#include <sstream>

#include "isa/disasm.hh"

namespace tproc
{

void
normalizeDataImage(DataImage &image)
{
    const auto before = [](const auto &x, const auto &y) {
        return x.first < y.first;
    };
    const auto notBefore = [](const auto &x, const auto &y) {
        return x.first >= y.first;
    };
    // Builders allocate data words in ascending order, so the common
    // image is already sorted and unique.
    if (std::adjacent_find(image.begin(), image.end(), notBefore) ==
        image.end())
        return;
    // Reversed, the last write to an address sorts first among its
    // equals, and unique() keeps the first of each run.
    std::reverse(image.begin(), image.end());
    std::stable_sort(image.begin(), image.end(), before);
    image.erase(std::unique(image.begin(), image.end(),
                            [](const auto &x, const auto &y) {
                                return x.first == y.first;
                            }),
                image.end());
}

const Instruction Program::haltInst{Opcode::HALT, 0, 0, 0, 0};

const Instruction &
Program::fetch(Addr pc) const
{
    if (pc >= code.size())
        return haltInst;
    return code[pc];
}

std::string
Program::disassembly() const
{
    std::ostringstream os;
    for (Addr pc = 0; pc < code.size(); ++pc)
        os << disassemble(pc, code[pc]) << '\n';
    return os.str();
}

} // namespace tproc
