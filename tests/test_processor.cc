/**
 * @file
 * End-to-end processor tests: small programs run to completion on every
 * model with golden-model retirement verification enabled. Any control
 * or data mis-repair panics inside the simulator, so "it finishes" is a
 * strong statement.
 */

#include <gtest/gtest.h>

#include <limits>

#include "core/runner.hh"
#include "program/builder.hh"
#include "workloads/patterns.hh"

namespace tproc
{
namespace
{

Program
straightLine(int n)
{
    ProgramBuilder b("straight");
    b.li(3, 1);
    for (int i = 0; i < n; ++i)
        b.addi(3, 3, 1);
    b.halt();
    return b.finish();
}

Program
countedLoop(int iters, int body)
{
    ProgramBuilder b("loop");
    b.li(3, iters);
    b.li(4, 0);
    auto top = b.newLabel();
    b.bind(top);
    for (int i = 0; i < body; ++i)
        b.addi(4, 4, 1);
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    return b.finish();
}

/** Hammock whose branch alternates every iteration: worst case for the
 *  2-bit counters, lots of mispredictions. */
Program
alternatingHammock(int iters)
{
    ProgramBuilder b("althammock");
    b.li(3, iters);
    b.li(4, 0);     // parity
    b.li(5, 0);     // accumulator
    auto top = b.newLabel();
    b.bind(top);
    b.andi(6, 3, 1);
    auto then_lab = b.newLabel();
    auto join = b.newLabel();
    b.bne(6, 0, then_lab);
    b.addi(5, 5, 1);
    b.addi(5, 5, 1);
    b.jmp(join);
    b.bind(then_lab);
    b.xori(5, 5, 7);
    b.bind(join);
    b.addi(4, 4, 3);
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    return b.finish();
}

/** Loop with data-dependent exit + memory traffic + calls. */
Program
mixed(uint64_t seed, int iters)
{
    ProgramBuilder b("mixed");
    Rng rng(seed);
    PatternContext cx(b, rng, 1 << 20);

    auto start = b.newLabel();
    b.jmp(start);
    auto leaf = buildLeafFunc(cx, 3, 0.8);
    b.bind(start);

    b.li(PatternContext::idx, 0);
    b.li(PatternContext::acc, 0);
    b.li(PatternContext::cnt, iters);
    auto top = b.newLabel();
    b.bind(top);
    b.addi(PatternContext::idx, PatternContext::idx, 1);
    HammockOpts o;
    o.takenBias = 0.7;
    kHammock(cx, PatternContext::out(0), PatternContext::out(1), o);
    kInnerLoop(cx, PatternContext::out(2), 4, 2);
    kCall(cx, leaf);
    kMemOps(cx, PatternContext::out(3), 256, 1);
    b.addi(PatternContext::cnt, PatternContext::cnt, -1);
    b.bne(PatternContext::cnt, 0, top);
    b.halt();
    return b.finish();
}

const char *const allModels[] = {
    "base", "base(ntb)", "base(fg)", "base(fg,ntb)",
    "RET", "MLB-RET", "FG", "FG+MLB-RET",
};

} // anonymous namespace

TEST(Processor, StraightLineRetiresEverything)
{
    Program p = straightLine(300);
    ProcessorStats s = runModel(p, "base");
    EXPECT_EQ(s.retiredInsts, 302u);    // li + 300 addi + halt
    // Cold code constructs every trace from the instruction cache, so
    // IPC is fetch-bound here; the loop tests exercise the warm path.
    EXPECT_GT(s.ipc(), 0.5);
    EXPECT_EQ(s.mispEvents, 0u);
}

TEST(Processor, CountedLoopCompletes)
{
    Program p = countedLoop(200, 6);
    ProcessorStats s = runModel(p, "base");
    EXPECT_EQ(s.retiredInsts, 2u + 200u * 8u + 1u);
    EXPECT_GT(s.ipc(), 1.0);
}

TEST(Processor, AlternatingHammockSurvivesMispredictions)
{
    Program p = alternatingHammock(300);
    ProcessorStats s = runModel(p, "base");
    // The path-based trace predictor learns part of the alternation, but
    // mispredictions remain.
    EXPECT_GT(s.mispEvents, 10u);
    EXPECT_GT(s.retiredInsts, 2000u);
}

class AllModels : public ::testing::TestWithParam<const char *>
{};

TEST_P(AllModels, AlternatingHammock)
{
    Program p = alternatingHammock(300);
    ProcessorStats s = runModel(p, GetParam());
    EXPECT_GT(s.retiredInsts, 2000u);
}

TEST_P(AllModels, MixedProgramVerifies)
{
    Program p = mixed(42, 120);
    ProcessorStats s = runModel(p, GetParam());
    EXPECT_GT(s.retiredInsts, 1000u);
    EXPECT_GT(s.ipc(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Models, AllModels, ::testing::ValuesIn(allModels));

TEST(Processor, FgModelExploitsFgci)
{
    Program p = alternatingHammock(400);
    ProcessorStats base = runModel(p, "base");
    ProcessorStats fg = runModel(p, "FG");
    EXPECT_GT(fg.recoveriesFgci, 0u);
    // FGCI should preserve traces across these hammock mispredictions.
    EXPECT_GT(fg.tracesPreserved, 0u);
    // And it should not be slower than base by much (usually faster).
    EXPECT_GT(fg.ipc(), base.ipc() * 0.9);
}

TEST(Processor, OverflowingArithmeticWrapsLikeTheEmulator)
{
    // A trace file can hold any program, and its reader emulates it:
    // INT64_MIN / -1 (a trap on x86) and overflowing adds, multiplies
    // and addresses (undefined behaviour in signed arithmetic) must
    // wrap, in the emulator and in the processor's execution units.
    constexpr int64_t min = std::numeric_limits<int64_t>::min();
    constexpr int64_t max = std::numeric_limits<int64_t>::max();
    ProgramBuilder b("overflow");
    b.li(3, min);
    b.li(4, -1);
    b.div(5, 3, 4);         // INT64_MIN / -1 = INT64_MIN
    b.add(6, 3, 3);         // 0
    b.sub(7, 0, 3);         // INT64_MIN
    b.li(8, max);
    b.mul(9, 8, 8);         // 1
    b.addi(10, 8, 1);       // INT64_MIN
    b.st(8, 8, 1);          // mem[INT64_MAX + 1]: the address wraps
    b.ld(11, 8, 1);
    b.halt();
    const Program p = b.finish();

    Emulator e(p);
    e.run(100);
    ASSERT_TRUE(e.halted());
    EXPECT_EQ(e.readReg(5), min);
    EXPECT_EQ(e.readReg(6), 0);
    EXPECT_EQ(e.readReg(7), min);
    EXPECT_EQ(e.readReg(9), 1);
    EXPECT_EQ(e.readReg(10), min);
    EXPECT_EQ(e.readReg(11), max);
    EXPECT_EQ(e.memory().read(Addr{1} << 63), max);

    // Every retirement is verified against the emulator.
    for (const char *model : {"base", "FG+MLB-RET"})
        EXPECT_EQ(runModel(p, model).retiredInsts, p.size()) << model;
}

TEST(Processor, StoreLoopStopsAtThePageBudget)
{
    // One store per data-memory page, for one page more than the
    // budget. Without the budget a loop like this, from a trace file,
    // allocates 4 KiB per iteration for as long as it runs.
    ProgramBuilder b("pages");
    b.li(4, SparseMemory::maxPages + 1);
    const auto top = b.newLabel();
    b.bind(top);
    b.st(4, 3, 0);          // mem[r3] <- r4
    b.addi(3, 3, SparseMemory::pageWords);
    b.addi(4, 4, -1);
    b.bne(4, 0, top);
    b.halt();
    const Program p = b.finish();

    Emulator e(p);
    EXPECT_THROW(e.run(UINT64_MAX), MemoryBudgetError);
    EXPECT_EQ(e.memory().pageCount(), SparseMemory::maxPages);
    // The refused page was never created, and the last one holds the
    // last store that fit.
    const Addr refused = SparseMemory::maxPages * SparseMemory::pageWords;
    EXPECT_EQ(e.memory().read(refused), 0);
    EXPECT_EQ(e.memory().read(refused - SparseMemory::pageWords), 2);

    for (const char *model : {"base", "FG+MLB-RET"})
        EXPECT_THROW(runModel(p, model), MemoryBudgetError) << model;
}

} // namespace tproc
