/**
 * @file
 * Trace selection tests: end conditions (length, indirect, ntb, halt,
 * fg-defer), FGCI padding semantics, determinism, the trace identity
 * round trip (re-selecting with a trace's own outcome bits reproduces
 * the trace exactly — the property repair and the trace cache rely on),
 * and the pre-decoded template against a direct recomputation.
 */

#include <gtest/gtest.h>

#include <array>

#include "common/random.hh"
#include "program/builder.hh"
#include "trace/selection.hh"
#include "workloads/workloads.hh"

namespace tproc
{
namespace
{

BranchOracle
constOracle(bool taken)
{
    return [taken](int, Addr, const Instruction &, bool) { return taken; };
}

/**
 * Reference for predecode(): the per-dispatch dependence walk the
 * template replaced, recomputed from the instructions alone. Fails on
 * the first field that differs.
 */
::testing::AssertionResult
templateMatchesWalk(const Trace &tr)
{
    const size_t n = tr.slots.size();
    std::array<int, numArchRegs> last_writer;
    last_writer.fill(-1);
    std::vector<int> dep1(n, -1), dep2(n, -1);
    std::vector<SlotSet> consumers(n, 0);
    SlotSet live_in_readers = 0, cond_branches = 0, roots = 0;
    for (size_t i = 0; i < n; ++i) {
        const Instruction &inst = tr.slots[i].inst;
        bool live_in = false;
        if (readsRs1(inst)) {
            dep1[i] = last_writer[inst.rs1];
            live_in |= dep1[i] < 0;
        }
        if (readsRs2(inst)) {
            dep2[i] = last_writer[inst.rs2];
            live_in |= dep2[i] < 0;
        }
        for (int dep : {dep1[i], dep2[i]}) {
            if (dep >= 0)
                consumers[dep] |= slotBit(i);
        }
        if (live_in)
            live_in_readers |= slotBit(i);
        if (isCondBranch(inst.op))
            cond_branches |= slotBit(i);
        if (dep1[i] < 0 && dep2[i] < 0)
            roots |= slotBit(i);
        if (writesReg(inst))
            last_writer[inst.rd] = static_cast<int>(i);
    }

    auto fail = [](size_t slot, const char *what) {
        return ::testing::AssertionFailure()
            << what << " differs at slot " << slot;
    };
    for (size_t i = 0; i < n; ++i) {
        const TraceSlot &s = tr.slots[i];
        const Instruction &inst = s.inst;
        if (s.readsRs1 != readsRs1(inst) || s.readsRs2 != readsRs2(inst) ||
            s.writesReg != writesReg(inst))
            return fail(i, "operand-use flags");
        if (s.dep1 != dep1[i] || s.dep2 != dep2[i])
            return fail(i, "dep1/dep2");
        SlotSet producers = 0;
        for (int dep : {dep1[i], dep2[i]}) {
            if (dep >= 0)
                producers |= slotBit(dep);
        }
        if (s.producers != producers)
            return fail(i, "producer set");
        if (s.consumers != consumers[i])
            return fail(i, "consumer set");
    }
    if (tr.liveInReaders != live_in_readers)
        return ::testing::AssertionFailure() << "live-in reader mask";
    if (tr.condBranches != cond_branches)
        return ::testing::AssertionFailure() << "branch mask";
    if (tr.roots != roots)
        return ::testing::AssertionFailure() << "root mask";
    std::vector<std::pair<int, int>> live_outs;
    for (int a = 0; a < numArchRegs; ++a) {
        if (last_writer[a] >= 0)
            live_outs.emplace_back(a, last_writer[a]);
    }
    if (tr.liveOuts.size() != live_outs.size())
        return ::testing::AssertionFailure() << "live-out count";
    for (size_t k = 0; k < live_outs.size(); ++k) {
        if (tr.liveOuts[k].arch != live_outs[k].first ||
            tr.liveOuts[k].slot != live_outs[k].second)
            return ::testing::AssertionFailure() << "live-out " << k;
    }
    return ::testing::AssertionSuccess();
}

Program
straight(int n)
{
    ProgramBuilder b("s");
    for (int i = 0; i < n; ++i)
        b.addi(3, 3, 1);
    b.halt();
    return b.finish();
}

} // namespace

TEST(Selection, EndsAtMaxLength)
{
    Program p = straight(100);
    SelectionParams params;
    TraceSelector sel(p, params);
    auto r = sel.select(0, constOracle(false));
    EXPECT_EQ(r.trace.size(), 32u);
    EXPECT_EQ(r.trace.end, TraceEnd::LENGTH);
    EXPECT_EQ(r.trace.fallthroughPc, 32u);
    EXPECT_EQ(r.trace.accruedLen, 32);
}

TEST(Selection, EndsAtHalt)
{
    Program p = straight(5);
    TraceSelector sel(p, SelectionParams{});
    auto r = sel.select(0, constOracle(false));
    EXPECT_EQ(r.trace.size(), 6u);
    EXPECT_EQ(r.trace.end, TraceEnd::HALT);
    EXPECT_EQ(r.trace.fallthroughPc, invalidAddr);
}

TEST(Selection, EndsAtIndirect)
{
    ProgramBuilder b("t");
    b.addi(3, 3, 1);
    b.jr(3);
    b.addi(4, 4, 1);
    b.halt();
    Program p = b.finish();
    TraceSelector sel(p, SelectionParams{});
    auto r = sel.select(0, constOracle(false));
    EXPECT_EQ(r.trace.size(), 2u);
    EXPECT_EQ(r.trace.end, TraceEnd::INDIRECT);
    EXPECT_TRUE(r.trace.endsInIndirect());
}

TEST(Selection, NtbEndsAtNotTakenBackwardBranch)
{
    ProgramBuilder b("t");
    auto top = b.newLabel();
    b.bind(top);
    b.addi(3, 3, 1);
    b.bne(3, 4, top);       // backward
    b.addi(5, 5, 1);
    b.halt();
    Program p = b.finish();

    SelectionParams with_ntb;
    with_ntb.ntb = true;
    TraceSelector sel(p, with_ntb);
    auto r = sel.select(0, constOracle(false));   // predicted not taken
    EXPECT_EQ(r.trace.end, TraceEnd::NTB);
    EXPECT_EQ(r.trace.size(), 2u);
    EXPECT_EQ(r.trace.fallthroughPc, 2u);

    // Taken prediction: the ntb rule does not apply.
    auto r2 = sel.select(0, constOracle(true));
    EXPECT_NE(r2.trace.end, TraceEnd::NTB);

    // Without ntb, the trace continues through the not-taken branch.
    TraceSelector plain(p, SelectionParams{});
    auto r3 = plain.select(0, constOracle(false));
    EXPECT_EQ(r3.trace.end, TraceEnd::HALT);
}

TEST(Selection, FgciPaddingEqualizesEnds)
{
    // Hammock with unequal arms: under fg selection, both outcomes must
    // produce traces ending at the same point with the same accrued
    // length.
    ProgramBuilder b("t");
    auto then_lab = b.newLabel();
    auto join = b.newLabel();
    b.addi(3, 3, 1);
    b.bne(1, 2, then_lab);
    b.addi(4, 4, 1);
    b.addi(4, 4, 1);
    b.addi(4, 4, 1);
    b.jmp(join);
    b.bind(then_lab);
    b.addi(5, 5, 1);
    b.bind(join);
    for (int i = 0; i < 40; ++i)
        b.addi(6, 6, 1);
    b.halt();
    Program p = b.finish();

    SelectionParams fg;
    fg.fg = true;
    Bit bit;
    TraceSelector sel(p, fg, &bit);
    auto taken = sel.select(0, constOracle(true));
    auto not_taken = sel.select(0, constOracle(false));

    EXPECT_EQ(taken.trace.accruedLen, not_taken.trace.accruedLen);
    EXPECT_EQ(taken.trace.fallthroughPc, not_taken.trace.fallthroughPc);
    EXPECT_EQ(taken.trace.end, not_taken.trace.end);
    // The shorter (taken) path has fewer actual slots.
    EXPECT_LT(taken.trace.size(), not_taken.trace.size());
    // Region metadata is recorded on the branch slot.
    EXPECT_TRUE(taken.trace.slots[1].regionStart);
    EXPECT_TRUE(taken.trace.slots[1].inRegion);
}

TEST(Selection, FgDeferWhenRegionDoesNotFit)
{
    // 20 straight instructions, then a hammock with a 20-instruction
    // region: 20 + 20 > 32, so the trace must end before the branch.
    ProgramBuilder b("t");
    for (int i = 0; i < 20; ++i)
        b.addi(3, 3, 1);
    auto then_lab = b.newLabel();
    auto join = b.newLabel();
    b.bne(1, 2, then_lab);      // pc 20
    for (int i = 0; i < 17; ++i)
        b.addi(4, 4, 1);
    b.jmp(join);
    b.bind(then_lab);
    b.addi(5, 5, 1);
    b.bind(join);
    b.halt();
    Program p = b.finish();

    SelectionParams fg;
    fg.fg = true;
    Bit bit;
    TraceSelector sel(p, fg, &bit);
    auto r = sel.select(0, constOracle(true));
    EXPECT_EQ(r.trace.end, TraceEnd::FG_DEFER);
    EXPECT_EQ(r.trace.size(), 20u);
    EXPECT_EQ(r.trace.fallthroughPc, 20u);

    // The deferred branch then starts its own trace with the region
    // embedded from accrued length zero.
    auto r2 = sel.select(20, constOracle(true));
    EXPECT_TRUE(r2.trace.slots[0].regionStart);
}

TEST(Selection, IdRoundTripOnWorkloads)
{
    // For every workload: select traces along the actual execution path,
    // then re-select each from its own id bits; the result must be
    // identical (trace identity is complete). Each trace's pre-decoded
    // template must equal a direct recomputation.
    for (const auto &name : workloadNames()) {
        Workload w = makeWorkload(name, 3);
        for (int variant = 0; variant < 2; ++variant) {
            SelectionParams params;
            params.fg = variant == 1;
            params.ntb = variant == 1;
            Bit bit;
            TraceSelector sel(w.program, params, &bit);

            Rng rng(99);
            BranchOracle random_oracle =
                [&rng](int, Addr, const Instruction &, bool) {
                    return rng.chance(0.5);
                };

            Addr pc = w.program.entry;
            for (int i = 0; i < 40 && pc != invalidAddr; ++i) {
                auto r = sel.select(pc, random_oracle);
                ASSERT_TRUE(templateMatchesWalk(r.trace))
                    << name << " trace " << i << "\n" << r.trace.str();
                auto replay = sel.select(pc, makeIdOracle(r.trace.id));
                ASSERT_EQ(replay.trace.id, r.trace.id)
                    << name << " trace " << i;
                ASSERT_EQ(replay.trace.size(), r.trace.size());
                ASSERT_EQ(replay.trace.accruedLen, r.trace.accruedLen);
                for (size_t s = 0; s < r.trace.slots.size(); ++s) {
                    ASSERT_EQ(replay.trace.slots[s].pc,
                              r.trace.slots[s].pc);
                }
                pc = r.trace.fallthroughPc;
            }
        }
    }
}

TEST(Selection, SlotsNeverExceedAccrued)
{
    for (const auto &name : workloadNames()) {
        Workload w = makeWorkload(name, 5);
        SelectionParams params;
        params.fg = true;
        Bit bit;
        TraceSelector sel(w.program, params, &bit);
        Rng rng(7);
        BranchOracle oracle = [&rng](int, Addr, const Instruction &,
                                     bool) { return rng.chance(0.7); };
        Addr pc = w.program.entry;
        for (int i = 0; i < 60 && pc != invalidAddr; ++i) {
            auto r = sel.select(pc, oracle);
            ASSERT_LE(static_cast<int>(r.trace.size()),
                      r.trace.accruedLen);
            ASSERT_LE(r.trace.accruedLen, params.maxTraceLen);
            ASSERT_GE(r.trace.size(), 1u);
            pc = r.trace.fallthroughPc;
        }
    }
}

} // namespace tproc
