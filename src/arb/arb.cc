#include "arb/arb.hh"

#include <cstdio>
#include <utility>

#include "common/parse.hh"

namespace
{

uint64_t
watchAddr()
{
    // Watch nothing (~0) when unset; a malformed address is ignored
    // rather than silently watching address 0.
    static uint64_t a = [] {
        uint64_t addr = ~0ull;
        if (!tproc::parseEnvU64("TPROC_WATCH_ADDR", addr))
            fprintf(stderr, "warning: malformed TPROC_WATCH_ADDR\n");
        return addr;
    }();
    return a;
}

#define WATCH(addr, ...)                                                 \
    do {                                                                 \
        if ((addr) == watchAddr()) {                                     \
            fprintf(stderr, "ARB " __VA_ARGS__);                         \
            fprintf(stderr, "\n");                                       \
        }                                                                \
    } while (0)

} // namespace

#include "common/logging.hh"

namespace tproc
{

Arb::Arb(int num_pes)
    : entries(static_cast<size_t>(num_pes) * maxTraceSlots),
      positions(num_pes, -1)
{
    // At least one bucket per entry, a power of two: the chains stay
    // about one entry long even when every slot holds a memory op.
    int bits = 0;
    while ((size_t{1} << bits) < entries.size())
        ++bits;
    bucketShift = 64 - bits;
    loadChains.resize(size_t{1} << bits);
    storeChains.resize(size_t{1} << bits);
}

size_t
Arb::bucketOf(Addr addr) const
{
    // Fibonacci hashing: word addresses with any stride spread evenly.
    return static_cast<size_t>((addr * 0x9E3779B97F4A7C15ull) >>
                               bucketShift);
}

Arb::Chain &
Arb::chain(Kind kind, Addr addr)
{
    return (kind == Kind::Load ? loadChains : storeChains)[bucketOf(addr)];
}

void
Arb::link(int32_t e, Kind kind, Addr addr)
{
    Entry &x = entries[e];
    Chain &c = chain(kind, addr);
    x.kind = kind;
    x.addr = addr;
    x.prev = c.tail;
    x.next = -1;
    if (c.tail >= 0)
        entries[c.tail].next = e;
    else
        c.head = e;
    c.tail = e;
}

void
Arb::unlink(int32_t e)
{
    Entry &x = entries[e];
    Chain &c = chain(x.kind, x.addr);
    if (x.prev >= 0)
        entries[x.prev].next = x.next;
    else
        c.head = x.next;
    if (x.next >= 0)
        entries[x.next].prev = x.prev;
    else
        c.tail = x.prev;
    x.kind = Kind::Free;
}

int64_t
Arb::seqOf(int32_t e) const
{
    const int pe = e / maxTraceSlots;
    const int64_t pos = positions[pe];
    panic_if(pos < 0, "Arb: ordering queried for free PE %d (trace %llu)",
             pe, static_cast<unsigned long long>(entries[e].uid));
    return pos * 64 + e % maxTraceSlots;
}

void
Arb::flagViolation(int32_t load)
{
    ++violations;
    pendingViolations.push_back({entries[load].uid, load % maxTraceSlots});
}

void
Arb::storePerform(int pe, TraceUid uid, int slot, Addr addr, int64_t value)
{
    const int32_t e = indexOf(pe, slot);
    Entry &s = entries[e];
    panic_if(s.kind == Kind::Load, "storePerform: PE %d slot %d is a load",
             pe, slot);

    // Re-execution to a different address shows up as undo + perform.
    if (s.kind == Kind::Store && s.addr != addr)
        storeUndo(pe, slot);

    WATCH(addr, "storePerform uid=%llu slot=%d val=%lld",
          (unsigned long long)uid, slot, (long long)value);
    if (s.kind == Kind::Free) {
        link(e, Kind::Store, addr);
        ++stores;
    }
    s.uid = uid;
    s.value = value;

    // Snoop: a load must reissue if it is logically after this store and
    // consumed either an older version (or raw memory), or this very
    // version with a now-different value.
    const int64_t store_seq = seqOf(e);
    for (int32_t l = chain(Kind::Load, addr).head; l >= 0;
         l = entries[l].next) {
        const Entry &le = entries[l];
        if (le.addr != addr || seqOf(l) <= store_seq)
            continue;
        if (le.src < 0) {
            flagViolation(l);       // consumed memory
        } else {
            const int64_t src_seq = seqOf(le.src);
            if (src_seq < store_seq)
                flagViolation(l);   // older version
            else if (src_seq == store_seq && le.value != value)
                flagViolation(l);   // value changed
        }
    }
}

void
Arb::storeUndo(int pe, int slot)
{
    const int32_t e = indexOf(pe, slot);
    Entry &s = entries[e];
    if (s.kind != Kind::Store)
        return;     // store never performed (nothing to undo)
    const Addr addr = s.addr;
    WATCH(addr, "storeUndo uid=%llu slot=%d", (unsigned long long)s.uid,
          slot);
    unlink(e);
    --stores;

    // Loads snoop the undo: any load whose data came from this store
    // must reissue (Section 2.2.2). Re-point their source at memory so
    // later snoops do not order a dead version.
    for (int32_t l = chain(Kind::Load, addr).head; l >= 0;
         l = entries[l].next) {
        if (entries[l].src == e) {
            flagViolation(l);
            entries[l].src = -1;
        }
    }
}

void
Arb::commitStore(int pe, int slot, SparseMemory &mem)
{
    const int32_t e = indexOf(pe, slot);
    Entry &s = entries[e];
    panic_if(s.kind != Kind::Store, "commitStore: PE %d slot %d not in ARB",
             pe, slot);
    const Addr addr = s.addr;
    WATCH(addr, "commitStore uid=%llu slot=%d val=%lld",
          (unsigned long long)s.uid, slot, (long long)s.value);
    mem.write(addr, s.value);
    unlink(e);
    --stores;

    // Loads that consumed this version now effectively read memory (the
    // value is unchanged); re-point them so ordering stays well-defined.
    for (int32_t l = chain(Kind::Load, addr).head; l >= 0;
         l = entries[l].next) {
        if (entries[l].src == e)
            entries[l].src = -1;
    }
}

Arb::LoadResult
Arb::loadAccess(int pe, TraceUid uid, int slot, Addr addr,
                const SparseMemory &mem)
{
    const int32_t e = indexOf(pe, slot);
    panic_if(entries[e].kind == Kind::Store,
             "loadAccess: PE %d slot %d is a store", pe, slot);

    // Drop any previous registration (a reissuing load re-queries).
    loadRemove(pe, slot);

    const int64_t load_seq = seqOf(e);
    int64_t best_seq = -1;
    int32_t best = -1;
    for (int32_t s = chain(Kind::Store, addr).head; s >= 0;
         s = entries[s].next) {
        if (entries[s].addr != addr)
            continue;
        const int64_t seq = seqOf(s);
        if (seq < load_seq && seq > best_seq) {
            best_seq = seq;
            best = s;
        }
    }

    LoadResult res;
    if (best >= 0) {
        res.value = entries[best].value;
        res.fromStore = true;
        res.src = {entries[best].uid, best % maxTraceSlots};
    } else {
        res.value = mem.read(addr);
    }

    WATCH(addr, "loadAccess uid=%llu slot=%d -> val=%lld fromStore=%d "
          "(src %llu/%d)", (unsigned long long)uid, slot,
          (long long)res.value, res.fromStore ? 1 : 0,
          (unsigned long long)res.src.uid, res.src.slot);
    link(e, Kind::Load, addr);
    Entry &le = entries[e];
    le.uid = uid;
    le.value = res.value;
    le.src = best;
    ++loads;
    return res;
}

void
Arb::loadRemove(int pe, int slot)
{
    const int32_t e = indexOf(pe, slot);
    if (entries[e].kind != Kind::Load)
        return;
    unlink(e);
    --loads;
}

void
Arb::takeViolations(std::vector<SeqTag> &out)
{
    out.clear();
    std::swap(out, pendingViolations);
}

Arb::EntryView
Arb::entry(int pe, int slot) const
{
    const Entry &x = entries[indexOf(pe, slot)];
    EntryView v;
    v.isLoad = x.kind == Kind::Load;
    v.isStore = x.kind == Kind::Store;
    if (x.kind != Kind::Free) {
        v.addr = x.addr;
        v.value = x.value;
    }
    return v;
}

} // namespace tproc
