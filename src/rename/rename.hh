/**
 * @file
 * Global register renaming for the trace processor.
 *
 * Only inter-trace values (live-ins and live-outs) are mapped to global
 * physical registers; intra-trace values are pre-renamed to producer-slot
 * indices and bypass locally within the PE (Vajapeyam & Mitra 1997). The
 * global rename map is snapshotted before each trace dispatch so recovery
 * can back the maps up to the mispredicted trace (Section 2.1).
 */

#ifndef TPROC_RENAME_RENAME_HH
#define TPROC_RENAME_RENAME_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace tproc
{

/** Architectural-to-physical map. */
using RenameMap = std::array<PhysReg, numArchRegs>;

/**
 * Physical register file with a free list. Register 0 is reserved: it
 * permanently holds zero (all architectural registers map to it at
 * reset). Values may be rewritten by selective reissue; consumers are
 * re-notified through the processor's broadcast path.
 *
 * alloc() hands out freed registers last-in first-out, and when none
 * are free, the never-used register with the lowest number, so the
 * sequence is 1, 2, 3, ... until registers come back. The arrays grow
 * with that high-water mark rather than being sized for all n
 * registers up front: a simulation that never has more than a few
 * hundred registers live touches only those. capacity() and
 * freeCount() still count all n. Freeing or writing a register that
 * was never allocated panics.
 *
 * Storage is structure-of-arrays: the per-cycle operand-readiness scans
 * touch only the valid flags and ready cycles, so those live in their
 * own dense arrays (an AoS layout drags the 8-byte values and allocator
 * state through the cache on every readiness probe).
 */
class PhysRegFile
{
  public:
    explicit PhysRegFile(size_t n = 65536);

    PhysReg alloc();
    void free(PhysReg r);

    /** Write (or re-broadcast) a value, visible to other PEs from
     *  ready_at. */
    void write(PhysReg r, int64_t value, Cycle ready_at);

    bool
    ready(PhysReg r, Cycle now) const
    {
        return valids[r] && now >= readyAts[r];
    }

    bool hasValue(PhysReg r) const { return valids[r] != 0; }
    int64_t value(PhysReg r) const { return values[r]; }
    Cycle readyAt(PhysReg r) const { return readyAts[r]; }

    size_t
    freeCount() const
    {
        return freeList.size() + (limit - values.size());
    }
    size_t capacity() const { return limit; }

    /** Reset map: every architectural register reads as zero. */
    static RenameMap
    initialMap()
    {
        RenameMap m;
        m.fill(zeroReg);
        return m;
    }

    static constexpr PhysReg zeroReg = 0;

  private:
    /** True if r was ever handed out. */
    bool allocated(PhysReg r) const { return r < values.size(); }

    size_t limit;   //!< n: registers 0 .. n-1 exist
    /** Per-register state of registers 0 .. high-water mark. */
    std::vector<int64_t> values;
    std::vector<Cycle> readyAts;
    std::vector<uint8_t> valids;
    std::vector<uint8_t> inUses;
    /** Freed registers, reused last-in first-out. */
    std::vector<PhysReg> freeList;
};

} // namespace tproc

#endif // TPROC_RENAME_RENAME_HH
