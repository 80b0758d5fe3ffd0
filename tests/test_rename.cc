/**
 * @file
 * Renaming tests: physical register file, the pre-decoded trace
 * template (intra-trace dependences vs live-ins/live-outs), dispatch
 * renaming from it, repair renaming (prefix register reuse), and the
 * re-dispatch pass (live-ins re-pointed, live-outs stable).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "pe/processing_element.hh"
#include "program/builder.hh"
#include "trace/selection.hh"

namespace tproc
{
namespace
{

std::shared_ptr<const Trace>
selectFrom(const Program &p, Addr pc, bool taken, Bit *bit = nullptr,
           bool fg = false)
{
    SelectionParams params;
    params.fg = fg;
    TraceSelector sel(p, params, bit);
    auto r = sel.select(pc, [taken](int, Addr, const Instruction &, bool) {
        return taken;
    });
    return std::make_shared<Trace>(std::move(r.trace));
}

} // namespace

TEST(PhysRegFile, AllocFreeWrite)
{
    PhysRegFile prf(256);
    size_t before = prf.freeCount();
    PhysReg r = prf.alloc();
    EXPECT_EQ(prf.freeCount(), before - 1);
    EXPECT_FALSE(prf.hasValue(r));
    prf.write(r, 42, 10);
    EXPECT_TRUE(prf.hasValue(r));
    EXPECT_FALSE(prf.ready(r, 9));
    EXPECT_TRUE(prf.ready(r, 10));
    EXPECT_EQ(prf.value(r), 42);
    prf.free(r);
    EXPECT_EQ(prf.freeCount(), before);

    // The zero register always reads zero and is never freed.
    EXPECT_TRUE(prf.ready(PhysRegFile::zeroReg, 0));
    EXPECT_EQ(prf.value(PhysRegFile::zeroReg), 0);
    prf.free(PhysRegFile::zeroReg);     // no-op
    EXPECT_TRUE(prf.ready(PhysRegFile::zeroReg, 0));
}

namespace
{

/**
 * The physical register file as it was before it grew on demand: every
 * array sized for all n registers and a free list pre-filled with
 * [n-1 ... 1], so alloc() pops 1, 2, 3, ... and reuses freed registers
 * last-in first-out. PhysRegFile must hand out the same registers and
 * report the same state.
 */
class ReferenceRegFile
{
  public:
    explicit ReferenceRegFile(size_t n)
        : values(n, 0), readyAts(n, 0), valids(n, 0), inUses(n, 0)
    {
        valids[PhysRegFile::zeroReg] = 1;
        inUses[PhysRegFile::zeroReg] = 1;
        for (size_t i = n - 1; i >= 1; --i)
            freeList.push_back(static_cast<PhysReg>(i));
    }

    PhysReg
    alloc()
    {
        panic_if(freeList.empty(), "PhysRegFile exhausted");
        const PhysReg r = freeList.back();
        freeList.pop_back();
        valids[r] = 0;
        inUses[r] = 1;
        values[r] = 0;
        readyAts[r] = 0;
        return r;
    }

    void
    free(PhysReg r)
    {
        if (r == PhysRegFile::zeroReg)
            return;
        panic_if(!inUses[r], "double free of physical register %u", r);
        inUses[r] = 0;
        valids[r] = 0;
        freeList.push_back(r);
    }

    void
    write(PhysReg r, int64_t value, Cycle ready_at)
    {
        panic_if(!inUses[r], "write to a free physical register %u", r);
        values[r] = value;
        valids[r] = 1;
        readyAts[r] = ready_at;
    }

    bool
    ready(PhysReg r, Cycle now) const
    {
        return valids[r] && now >= readyAts[r];
    }

    bool hasValue(PhysReg r) const { return valids[r] != 0; }
    int64_t value(PhysReg r) const { return values[r]; }
    size_t freeCount() const { return freeList.size(); }

  private:
    std::vector<int64_t> values;
    std::vector<Cycle> readyAts;
    std::vector<uint8_t> valids;
    std::vector<uint8_t> inUses;
    std::vector<PhysReg> freeList;
};

/** Run one call on both files; true if it panicked on both. */
template <typename Call>
bool
bothPanic(Call call, const char *what, uint64_t seed, uint64_t step)
{
    bool dut_threw = false, ref_threw = false;
    try {
        call(0);
    } catch (const SimError &) {
        dut_threw = true;
    }
    try {
        call(1);
    } catch (const SimError &) {
        ref_threw = true;
    }
    EXPECT_EQ(dut_threw, ref_threw)
        << what << " at seed " << seed << " step " << step;
    return dut_threw && ref_threw;
}

/**
 * A seeded stream of alloc/free/write calls on a PhysRegFile and the
 * reference, both of n registers, until the files run out (which they
 * must do at the same call) or max_steps calls have run. Allocation is
 * drawn with probability alloc_p, so the live set drifts upward.
 * Returns true if the files ran out.
 */
bool
expectSameRegisterFile(size_t n, uint64_t seed, double alloc_p,
                       uint64_t max_steps)
{
    ScopedErrorCapture capture;
    PhysRegFile dut(n);
    ReferenceRegFile ref(n);
    Rng rng(seed);
    std::vector<PhysReg> live;
    PhysReg highest = 0;

    auto sameState = [&](PhysReg r, uint64_t step) {
        const Cycle now = rng.below(64);
        ASSERT_EQ(dut.hasValue(r), ref.hasValue(r))
            << "r" << r << " seed " << seed << " step " << step;
        ASSERT_EQ(dut.ready(r, now), ref.ready(r, now))
            << "r" << r << " seed " << seed << " step " << step;
        ASSERT_EQ(dut.value(r), ref.value(r))
            << "r" << r << " seed " << seed << " step " << step;
    };

    uint64_t step = 0;
    bool ran_out = false;
    for (; step < max_steps && !ran_out; ++step) {
        if (live.empty() || rng.chance(alloc_p)) {
            PhysReg got[2] = {0, 0};
            ran_out = bothPanic([&](int side) {
                got[side] = side == 0 ? dut.alloc() : ref.alloc();
            }, "alloc", seed, step);
            if (ran_out) {
                EXPECT_EQ(live.size(), n - 1) << "seed " << seed;
                continue;
            }
            EXPECT_EQ(got[0], got[1]) << "seed " << seed << " step " << step;
            if (got[0] != got[1])
                return false;
            live.push_back(got[0]);
            highest = std::max(highest, got[0]);
        } else if (rng.chance(0.5)) {
            const size_t at = rng.below(live.size());
            const PhysReg r = live[at];
            live[at] = live.back();
            live.pop_back();
            dut.free(r);
            ref.free(r);
        } else {
            const PhysReg r = live[rng.below(live.size())];
            const auto value = static_cast<int64_t>(rng.next());
            const Cycle at = rng.below(64);
            dut.write(r, value, at);
            ref.write(r, value, at);
            sameState(r, step);
        }
        EXPECT_EQ(dut.freeCount(), ref.freeCount())
            << "seed " << seed << " step " << step;
        if (!live.empty())
            sameState(live[rng.below(live.size())], step);
    }
    // Every register ever handed out, freed ones included, reads alike.
    for (PhysReg r = 0; r <= highest; ++r)
        sameState(r, step);
    EXPECT_EQ(dut.capacity(), n);

    // Never-allocated registers: a structured panic, not a stray index.
    if (highest + 1 < n) {
        EXPECT_THROW(dut.free(highest + 1), SimError);
        EXPECT_THROW(dut.write(highest + 1, 1, 0), SimError);
    }
    return ran_out;
}

} // namespace

TEST(PhysRegFile, AllocatesLikeThePrefilledFreeList)
{
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        // 80 registers: the live set wanders, reusing freed registers,
        // until it runs the file out.
        EXPECT_TRUE(expectSameRegisterFile(80, seed, 0.35, 20000))
            << "seed " << seed;
        // Table-1 size: the arrays grow to over a thousand registers.
        expectSameRegisterFile(65536, seed, 0.55, 5000);
    }
    // And one stream that exhausts all 65,535 allocatable registers.
    EXPECT_TRUE(expectSameRegisterFile(65536, 21, 0.95, 100000));
}

TEST(PhysRegFile, HandsOutLowestFirstThenReusesFreed)
{
    PhysRegFile prf(65536);
    EXPECT_EQ(prf.capacity(), 65536u);
    EXPECT_EQ(prf.freeCount(), 65535u);
    // The first registers handed out are the lowest-numbered.
    EXPECT_EQ(prf.alloc(), 1u);
    EXPECT_EQ(prf.alloc(), 2u);
    prf.free(1);
    EXPECT_EQ(prf.alloc(), 1u);
    EXPECT_EQ(prf.alloc(), 3u);
    EXPECT_EQ(prf.freeCount(), 65532u);
}

TEST(Rename, IntraTraceDepsAndLiveInOut)
{
    // r3 = r4 + r5 ; r6 = r3 + r4 ; r3 = r6 + r6
    ProgramBuilder b("t");
    b.add(3, 4, 5);
    b.add(6, 3, 4);
    b.add(3, 6, 6);
    b.halt();
    Program p = b.finish();
    auto tr = selectFrom(p, 0, false);

    PhysRegFile prf(256);
    RenameMap map = PhysRegFile::initialMap();
    auto t = makeInFlightTrace(1, tr, map, prf);

    // Slot 0: both sources are live-ins (initial map -> zero reg).
    EXPECT_EQ(tr->slots[0].dep1, -1);
    EXPECT_EQ(t->slots[0].src1, PhysRegFile::zeroReg);
    // Slot 1: rs1 = r3 from slot 0, rs2 = r4 live-in.
    EXPECT_EQ(tr->slots[1].dep1, 0);
    EXPECT_EQ(tr->slots[1].dep2, -1);
    // Slot 2: reads r6 from slot 1 twice.
    EXPECT_EQ(tr->slots[2].dep1, 1);
    EXPECT_EQ(tr->slots[2].dep2, 1);

    // Live-outs: r3 (last writer slot 2) and r6 (slot 1). Slot 0's write
    // of r3 is intra-trace only (no global register).
    EXPECT_EQ(t->slots[0].dest, invalidPhysReg);
    EXPECT_NE(t->slots[1].dest, invalidPhysReg);
    EXPECT_NE(t->slots[2].dest, invalidPhysReg);
    EXPECT_EQ(t->liveOuts.size(), 2u);
    EXPECT_EQ(map[3], t->slots[2].dest);
    EXPECT_EQ(map[6], t->slots[1].dest);
}

TEST(Rename, TemplateAndDispatchOfABranchyTrace)
{
    // A two-producer slot, live-ins, a register written twice and a
    // conditional branch, selected along its not-taken path.
    ProgramBuilder b("t");
    auto join = b.newLabel();
    b.add(3, 4, 5);         // slot 0: live-ins r4, r5; first write of r3
    b.addi(6, 4, 7);        // slot 1: live-in r4
    b.add(7, 3, 6);         // slot 2: producers slots 0 and 1
    b.bne(7, 4, join);      // slot 3: r7 from slot 2, live-in r4
    b.addi(3, 7, 1);        // slot 4: second write of r3
    b.bind(join);
    b.halt();               // slot 5
    Program p = b.finish();
    auto tr = selectFrom(p, 0, false);
    ASSERT_EQ(tr->size(), 6u);

    const std::vector<std::pair<int, int>> deps = {
        {-1, -1}, {-1, -1}, {0, 1}, {2, -1}, {2, -1}, {-1, -1}};
    for (size_t i = 0; i < deps.size(); ++i) {
        EXPECT_EQ(tr->slots[i].dep1, deps[i].first) << "slot " << i;
        EXPECT_EQ(tr->slots[i].dep2, deps[i].second) << "slot " << i;
    }
    EXPECT_EQ(tr->slots[2].producers, slotBit(0) | slotBit(1));
    EXPECT_EQ(tr->slots[0].consumers, slotBit(2));
    EXPECT_EQ(tr->slots[1].consumers, slotBit(2));
    EXPECT_EQ(tr->slots[2].consumers, slotBit(3) | slotBit(4));
    EXPECT_EQ(tr->roots, slotBit(0) | slotBit(1) | slotBit(5));
    EXPECT_EQ(tr->liveInReaders, slotBit(0) | slotBit(1) | slotBit(3));
    EXPECT_EQ(tr->condBranches, slotBit(3));
    // Live-outs in ascending register order; slot 0's write of r3 is
    // overwritten by slot 4 inside the trace.
    ASSERT_EQ(tr->liveOuts.size(), 3u);
    EXPECT_EQ(tr->liveOuts[0].arch, 3);
    EXPECT_EQ(tr->liveOuts[0].slot, 4);
    EXPECT_EQ(tr->liveOuts[1].arch, 6);
    EXPECT_EQ(tr->liveOuts[1].slot, 1);
    EXPECT_EQ(tr->liveOuts[2].arch, 7);
    EXPECT_EQ(tr->liveOuts[2].slot, 2);

    // Dispatch against a map where the live-ins have their own
    // registers.
    PhysRegFile prf(256);
    RenameMap map = PhysRegFile::initialMap();
    map[4] = prf.alloc();
    map[5] = prf.alloc();
    const RenameMap before = map;
    auto t = makeInFlightTrace(1, tr, map, prf);

    EXPECT_EQ(t->wake, tr->roots);
    EXPECT_EQ(t->completed, 0u);
    EXPECT_EQ(t->inFlight, 0u);
    EXPECT_EQ(t->code, tr->slots.data());
    EXPECT_EQ(t->mapBefore, before);
    // Live-in sources read the pre-dispatch map; local operands have
    // no global source.
    for (size_t i = 0; i < tr->size(); ++i) {
        const TraceSlot &c = tr->slots[i];
        EXPECT_EQ(t->slots[i].src1,
                  c.liveIn1() ? before[c.inst.rs1] : invalidPhysReg)
            << "slot " << i;
        EXPECT_EQ(t->slots[i].src2,
                  c.liveIn2() ? before[c.inst.rs2] : invalidPhysReg)
            << "slot " << i;
    }
    EXPECT_EQ(t->slots[0].src1, before[4]);
    EXPECT_EQ(t->slots[0].src2, before[5]);
    EXPECT_EQ(t->slots[3].src2, before[4]);
    // Live-out destinations are the post-dispatch map.
    ASSERT_EQ(t->liveOuts.size(), 3u);
    for (const LiveOut &lo : t->liveOuts) {
        EXPECT_EQ(t->slots[lo.slot].dest, map[lo.arch]);
        EXPECT_EQ(lo.phys, map[lo.arch]);
    }
    EXPECT_EQ(t->slots[4].dest, map[3]);
    EXPECT_EQ(t->slots[0].dest, invalidPhysReg);
    EXPECT_EQ(map[4], before[4]);
    EXPECT_EQ(map[5], before[5]);
}

TEST(Rename, RepairKeepsPrefixRegistersAndFreesSuffix)
{
    // Trace with a hammock: prefix (before branch) writes r3; the two
    // arms write different registers.
    ProgramBuilder b("t");
    auto then_lab = b.newLabel();
    auto join = b.newLabel();
    b.addi(3, 0, 1);        // slot 0 (prefix)
    b.bne(1, 2, then_lab);  // slot 1 (the branch)
    b.addi(4, 0, 2);        // not-taken arm writes r4
    b.jmp(join);
    b.bind(then_lab);
    b.addi(5, 0, 3);        // taken arm writes r5
    b.bind(join);
    b.addi(6, 0, 4);
    b.halt();
    Program p = b.finish();

    auto orig = selectFrom(p, 0, false);    // not-taken path
    PhysRegFile prf(256);
    RenameMap map = PhysRegFile::initialMap();
    auto t = makeInFlightTrace(1, orig, map, prf);

    PhysReg r3_phys = t->slots[0].dest;
    ASSERT_NE(r3_phys, invalidPhysReg);
    PhysReg r4_phys = t->slots[2].dest;
    ASSERT_NE(r4_phys, invalidPhysReg);

    // Pretend the prefix executed.
    t->slots[0].issued = t->slots[0].completed = true;
    t->slots[0].value = 1;

    // Repair to the taken path.
    auto repaired = selectFrom(p, 0, true);
    RenameMap map2 = t->mapBefore;
    std::vector<PhysReg> deferred;
    repairInFlightTrace(*t, repaired, 2, map2, prf, 0, deferred);

    // Prefix keeps its physical register and its dynamic state.
    EXPECT_EQ(t->slots[0].dest, r3_phys);
    EXPECT_TRUE(t->slots[0].completed);
    // The old suffix live-outs (r4, and r6 whose producing slot index
    // shifted) are deferred-freed.
    EXPECT_EQ(deferred.size(), 2u);
    EXPECT_TRUE(deferred[0] == r4_phys || deferred[1] == r4_phys);
    // The new arm writes r5 through a fresh register installed in map2.
    EXPECT_EQ(map2[5], t->slots[2].dest);
    EXPECT_EQ(map2[3], r3_phys);
    // Suffix slots are reset.
    EXPECT_FALSE(t->slots[2].issued);
}

TEST(Rename, RedispatchRepointsLiveInsKeepsLiveOuts)
{
    ProgramBuilder b("t");
    b.add(3, 4, 5);     // live-ins r4, r5; live-out r3
    b.halt();
    Program p = b.finish();
    auto tr = selectFrom(p, 0, false);

    PhysRegFile prf(256);
    RenameMap map = PhysRegFile::initialMap();
    auto t = makeInFlightTrace(1, tr, map, prf);
    PhysReg out = t->slots[0].dest;
    PhysReg old_src = t->slots[0].src1;

    // A recovery gives r4 a new producer.
    RenameMap map2 = PhysRegFile::initialMap();
    PhysReg new_r4 = prf.alloc();
    map2[4] = new_r4;

    SlotSet changed = redispatchInFlightTrace(*t, map2);
    EXPECT_EQ(changed, slotBit(0));
    EXPECT_EQ(t->slots[0].src1, new_r4);
    EXPECT_NE(t->slots[0].src1, old_src);
    // Live-out mapping unchanged and re-installed.
    EXPECT_EQ(t->slots[0].dest, out);
    EXPECT_EQ(map2[3], out);

    // Re-dispatch with the same map: nothing changes.
    EXPECT_EQ(redispatchInFlightTrace(*t, map2), 0u);
}

} // namespace tproc
