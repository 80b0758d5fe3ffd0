/**
 * @file
 * Address Resolution Buffer variant (Franklin & Sohi ARB, as used in
 * Section 2.2.2): keeps speculative store versions per address ordered by
 * sequence number, answers loads with the correct earlier version, and
 * snoops store performs / store undos to detect loads that consumed the
 * wrong version and must selectively reissue.
 *
 * Storage is fixed, as in the hardware: one entry per (PE, slot),
 * allocated once for numPEs x maxTraceSlots memory operations. A
 * performed store or a registered load links its entry into the store
 * or load chain of its address's hash bucket, always at the tail, so
 * the entries of one address sit in registration order. Snoops walk the
 * load chain in that order, which fixes the order violations are raised
 * in.
 *
 * Sequence numbers are (logical trace order, slot in trace). Because CGCI
 * inserts and removes traces in the middle of the window, logical order
 * is not derivable from physical PE numbers: the processor keeps a
 * per-PE window-position array current (setPosition, the paper's
 * physical-to-logical translation table). A free PE has position -1;
 * ordering one of its entries is a bug and panics.
 */

#ifndef TPROC_ARB_ARB_HH
#define TPROC_ARB_ARB_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "emulator/emulator.hh"
#include "trace/trace.hh"

namespace tproc
{

/** Identifies a load/store by its trace instance and slot. */
struct SeqTag
{
    TraceUid uid = invalidTraceUid;
    int slot = -1;

    bool valid() const { return uid != invalidTraceUid; }
    bool
    operator==(const SeqTag &o) const
    {
        return uid == o.uid && slot == o.slot;
    }
};

class Arb
{
  public:
    /** Entries for num_pes PEs of maxTraceSlots slots, every PE free. */
    explicit Arb(int num_pes);

    /** Window position of the trace on PE pe; -1 frees the PE. */
    void setPosition(int pe, int64_t pos) { positions[pe] = pos; }
    int64_t position(int pe) const { return positions[pe]; }

    /** @name Store side. */
    /// @{
    /** A store performs (possibly again, after reissue): inserts or
     *  updates its version and snoops loads for violations. */
    void storePerform(int pe, TraceUid uid, int slot, Addr addr,
                      int64_t value);

    /** A performed store is removed (squash, or re-execution to a new
     *  address): loads that consumed it must reissue. */
    void storeUndo(int pe, int slot);

    /** Head-trace store commits: version leaves the ARB into memory. */
    void commitStore(int pe, int slot, SparseMemory &mem);
    /// @}

    /** @name Load side. */
    /// @{
    struct LoadResult
    {
        int64_t value = 0;
        SeqTag src;             //!< supplying store; invalid = from memory
        bool fromStore = false;
    };

    /** A load executes: returns the latest logically-earlier version, or
     *  the memory value; registers the load for snooping. */
    LoadResult loadAccess(int pe, TraceUid uid, int slot, Addr addr,
                          const SparseMemory &mem);

    /** Remove a load from snoop lists (retire, squash, or just before it
     *  reissues). */
    void loadRemove(int pe, int slot);
    /// @}

    /** Move the loads that must selectively reissue into out (cleared
     *  first; the two vectors swap storage, so draining every cycle
     *  allocates nothing). */
    void takeViolations(std::vector<SeqTag> &out);

    /** What one (PE, slot) entry holds (invariant checks). */
    struct EntryView
    {
        bool isLoad = false;
        bool isStore = false;
        Addr addr = invalidAddr;
        int64_t value = 0;      //!< store version / value the load got
    };
    EntryView entry(int pe, int slot) const;

    /** Number of live store versions (diagnostics / invariants). */
    size_t storeCount() const { return stores; }
    size_t loadCount() const { return loads; }

    uint64_t violations = 0;

  private:
    enum class Kind : uint8_t { Free, Load, Store };

    struct Entry
    {
        Addr addr = invalidAddr;
        TraceUid uid = invalidTraceUid;
        int64_t value = 0;      //!< store version / value the load got
        int32_t prev = -1;      //!< neighbours in the bucket chain
        int32_t next = -1;
        int32_t src = -1;       //!< load: supplying store entry, -1 = memory
        Kind kind = Kind::Free;
    };

    /** Head and tail of one bucket's load chain or store chain. */
    struct Chain
    {
        int32_t head = -1;
        int32_t tail = -1;
    };

    static int32_t
    indexOf(int pe, int slot)
    {
        return pe * maxTraceSlots + slot;
    }
    size_t bucketOf(Addr addr) const;
    Chain &chain(Kind kind, Addr addr);
    void link(int32_t e, Kind kind, Addr addr);
    void unlink(int32_t e);

    /** Total order over memory operations. */
    int64_t seqOf(int32_t e) const;

    void flagViolation(int32_t load);

    std::vector<Entry> entries;
    std::vector<Chain> loadChains;      //!< per bucket
    std::vector<Chain> storeChains;     //!< per bucket
    int bucketShift = 0;
    std::vector<int64_t> positions;     //!< per PE; -1 = free
    size_t stores = 0;
    size_t loads = 0;
    std::vector<SeqTag> pendingViolations;
};

} // namespace tproc

#endif // TPROC_ARB_ARB_HH
