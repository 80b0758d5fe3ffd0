/** @file Program builder + golden emulator tests. */

#include <gtest/gtest.h>

#include <algorithm>

#include "emulator/emulator.hh"
#include "program/builder.hh"
#include "program/cfg.hh"
#include "workloads/workloads.hh"

namespace tproc
{

TEST(Builder, ForwardLabelFixup)
{
    ProgramBuilder b("t");
    auto target = b.newLabel();
    b.beq(1, 2, target);
    b.addi(3, 3, 1);
    b.bind(target);
    b.halt();
    Program p = b.finish();
    EXPECT_EQ(p.code[0].imm, 2);    // branch resolves to the halt
}

TEST(Builder, OutOfRangeFetchIsHalt)
{
    ProgramBuilder b("t");
    b.nop();
    Program p = b.finish();
    EXPECT_EQ(p.fetch(500).op, Opcode::HALT);
}

TEST(Builder, DataImageIsSortedUniqueLastWriteWins)
{
    ProgramBuilder b("t");
    b.data(30, 3);
    b.data(10, 1);
    b.data(20, 2);
    b.data(10, 11);         // rewrites 10
    b.data(invalidAddr, 9);
    b.data(30, -3);         // rewrites 30
    b.data(0, 0);
    b.data(10, 111);        // rewrites 10 again
    b.halt();
    const Program p = b.finish();
    const DataImage want = {
        {0, 0}, {10, 111}, {20, 2}, {30, -3}, {invalidAddr, 9}};
    EXPECT_EQ(p.dataInit, want);

    // What a word-addressed map with assignment would have held.
    Emulator e(p);
    for (const auto &[a, v] : want)
        EXPECT_EQ(e.memory().read(a), v) << "word " << a;
}

TEST(Builder, NormalizeKeepsSortedImagesAndOrdersOthers)
{
    DataImage sorted = {{1, 5}, {2, 6}, {700, 7}};
    const DataImage copy = sorted;
    normalizeDataImage(sorted);
    EXPECT_EQ(sorted, copy);

    DataImage empty;
    normalizeDataImage(empty);
    EXPECT_TRUE(empty.empty());

    // A run of one address keeps its last entry even when the run is
    // split by other addresses.
    DataImage mixed = {{9, 1}, {4, 2}, {9, 3}, {4, 4}, {9, 5}, {1, 6}};
    normalizeDataImage(mixed);
    EXPECT_EQ(mixed, (DataImage{{1, 6}, {4, 4}, {9, 5}}));
}

TEST(Emulator, ArithmeticAndMemory)
{
    ProgramBuilder b("t");
    b.li(3, 21);
    b.slli(4, 3, 1);        // r4 = 42
    b.st(4, 0, 100);        // mem[100] = 42
    b.ld(5, 0, 100);        // r5 = 42
    b.addi(5, 5, -2);       // r5 = 40
    b.halt();
    Program p = b.finish();

    Emulator e(p);
    e.run(100);
    EXPECT_TRUE(e.halted());
    EXPECT_EQ(e.readReg(4), 42);
    EXPECT_EQ(e.readReg(5), 40);
    EXPECT_EQ(e.memory().read(100), 42);
}

TEST(Emulator, DataInitLoaded)
{
    ProgramBuilder b("t");
    b.data(500, 77);
    b.ld(3, 0, 500);
    b.halt();
    Program p = b.finish();
    Emulator e(p);
    e.run(10);
    EXPECT_EQ(e.readReg(3), 77);
}

TEST(Emulator, LoopAndBranches)
{
    ProgramBuilder b("t");
    b.li(3, 10);
    b.li(4, 0);
    auto top = b.newLabel();
    b.bind(top);
    b.addi(4, 4, 2);
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.halt();
    Program p = b.finish();

    Emulator e(p);
    uint64_t n = e.run(1000);
    EXPECT_TRUE(e.halted());
    EXPECT_EQ(e.readReg(4), 20);
    EXPECT_EQ(n, 2u + 3u * 10u + 1u);
}

TEST(Emulator, CallAndReturn)
{
    ProgramBuilder b("t");
    auto start = b.newLabel();
    b.jmp(start);
    auto fn = b.newLabel();
    b.bind(fn);
    b.addi(4, 4, 5);
    b.ret();
    b.bind(start);
    b.call(fn);
    b.call(fn);
    b.halt();
    Program p = b.finish();

    Emulator e(p);
    e.run(100);
    EXPECT_TRUE(e.halted());
    EXPECT_EQ(e.readReg(4), 10);
}

TEST(Emulator, IndirectJump)
{
    ProgramBuilder b("t");
    auto target = b.newLabel();
    b.li(3, 0);             // placeholder, fixed below
    b.jr(3);
    b.addi(4, 4, 99);       // skipped
    b.bind(target);
    b.addi(4, 4, 1);
    b.halt();
    Program p = b.finish();
    p.code[0].imm = static_cast<int64_t>(b.labelAddr(target));

    Emulator e(p);
    e.run(100);
    EXPECT_EQ(e.readReg(4), 1);
}

TEST(Emulator, ZeroRegisterStaysZero)
{
    ProgramBuilder b("t");
    b.addi(0, 0, 99);
    b.add(3, 0, 0);
    b.halt();
    Program p = b.finish();
    Emulator e(p);
    e.run(10);
    EXPECT_EQ(e.readReg(0), 0);
    EXPECT_EQ(e.readReg(3), 0);
}

TEST(SparseMemory, UnwrittenWordsReadZeroWithoutCreatingPages)
{
    SparseMemory m;
    const Addr probes[] = {0, workloadDataBase, Addr{1} << 63, invalidAddr};
    for (Addr a : probes)
        EXPECT_EQ(m.read(a), 0);
    EXPECT_EQ(m.pageCount(), 0u);

    m.write(workloadDataBase, 5);
    EXPECT_EQ(m.pageCount(), 1u);
    EXPECT_EQ(m.read(workloadDataBase), 5);
    EXPECT_EQ(m.read(workloadDataBase + 1), 0);     // same page
    EXPECT_EQ(m.read(0), 0);
    EXPECT_EQ(m.read(Addr{1} << 63), 0);
    EXPECT_EQ(m.read(invalidAddr), 0);
    EXPECT_EQ(m.pageCount(), 1u);
}

TEST(SparseMemory, WritesAcrossAPageBoundaryReadBack)
{
    SparseMemory m;
    const Addr edge = workloadDataBase + 3 * SparseMemory::pageWords;
    m.write(edge - 1, -1);
    m.write(edge, 2);
    EXPECT_EQ(m.pageCount(), 2u);
    EXPECT_EQ(m.read(edge - 1), -1);
    EXPECT_EQ(m.read(edge), 2);
    EXPECT_EQ(m.read(edge - 2), 0);
    EXPECT_EQ(m.read(edge + 1), 0);

    // Overwrites stay in place; the last word of the address space has
    // a page like any other.
    m.write(edge, 3);
    m.write(invalidAddr, 9);
    EXPECT_EQ(m.read(edge), 3);
    EXPECT_EQ(m.read(invalidAddr), 9);
    EXPECT_EQ(m.read(invalidAddr - 1), 0);
    EXPECT_EQ(m.pageCount(), 3u);
}

TEST(SparseMemory, LoadedAnalogImagesReadBack)
{
    for (const std::string &name : workloadNames()) {
        const Workload w = makeWorkload(name);
        const auto &image = w.program.dataInit;
        ASSERT_FALSE(image.empty()) << name;
        SparseMemory loaded, written;
        loaded.load(image);
        Addr lo = invalidAddr, hi = 0;
        for (const auto &[a, v] : image) {
            written.write(a, v);
            lo = std::min(lo, a);
            hi = std::max(hi, a);
        }
        for (const auto &[a, v] : image)
            ASSERT_EQ(loaded.read(a), v) << name << " word " << a;
        // Same pages, same words: every word of the image's span, one
        // page beyond it on each side, reads alike.
        EXPECT_EQ(loaded.pageCount(), written.pageCount()) << name;
        for (Addr a = lo - SparseMemory::pageWords;
             a <= hi + SparseMemory::pageWords; ++a) {
            ASSERT_EQ(loaded.read(a), written.read(a))
                << name << " word " << a;
        }
    }
}

TEST(Cfg, BasicBlocks)
{
    ProgramBuilder b("t");
    b.addi(3, 3, 1);        // 0
    auto l = b.newLabel();
    b.beq(3, 0, l);         // 1: ends block
    b.addi(4, 4, 1);        // 2
    b.bind(l);
    b.addi(5, 5, 1);        // 3: leader (branch target)
    b.halt();               // 4
    Program p = b.finish();

    auto blocks = findBasicBlocks(p);
    ASSERT_EQ(blocks.size(), 3u);
    EXPECT_EQ(blocks[0].start, 0u);
    EXPECT_EQ(blocks[0].end, 2u);
    EXPECT_EQ(blocks[1].start, 2u);
    EXPECT_EQ(blocks[1].end, 3u);
    EXPECT_EQ(blocks[2].start, 3u);
    EXPECT_EQ(blocks[2].end, 5u);
    EXPECT_EQ(blockContaining(blocks, 4), 2);
    EXPECT_EQ(blockContaining(blocks, 99), -1);
}

} // namespace tproc
