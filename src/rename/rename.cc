#include "rename/rename.hh"

#include "common/logging.hh"

namespace tproc
{

PhysRegFile::PhysRegFile(size_t n)
    // Only register 0 exists up front: the architectural zero, valid
    // and in use from the start, never freed.
    : limit(n), values{0}, readyAts{0}, valids{1}, inUses{1}
{
    panic_if(n < numArchRegs + 2, "PhysRegFile too small");
}

PhysReg
PhysRegFile::alloc()
{
    PhysReg r;
    if (!freeList.empty()) {
        r = freeList.back();
        freeList.pop_back();
        valids[r] = 0;
        inUses[r] = 1;
        values[r] = 0;
        readyAts[r] = 0;
    } else {
        panic_if(values.size() == limit, "PhysRegFile exhausted");
        r = static_cast<PhysReg>(values.size());
        values.push_back(0);
        readyAts.push_back(0);
        valids.push_back(0);
        inUses.push_back(1);
    }
    return r;
}

void
PhysRegFile::free(PhysReg r)
{
    if (r == zeroReg)
        return;
    panic_if(!allocated(r), "free of never-allocated physical register %u",
             r);
    panic_if(!inUses[r], "double free of physical register %u", r);
    inUses[r] = 0;
    valids[r] = 0;
    freeList.push_back(r);
}

void
PhysRegFile::write(PhysReg r, int64_t value, Cycle ready_at)
{
    panic_if(r == zeroReg, "write to the zero register");
    panic_if(!allocated(r), "write to never-allocated physical register %u",
             r);
    panic_if(!inUses[r], "write to a free physical register %u", r);
    values[r] = value;
    valids[r] = 1;
    readyAts[r] = ready_at;
}

} // namespace tproc
