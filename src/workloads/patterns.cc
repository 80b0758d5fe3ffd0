#include "workloads/patterns.hh"

#include "common/logging.hh"

namespace tproc
{

void
PatternContext::loadMasked(Addr base, size_t n, ArchReg val_reg)
{
    panic_if(n == 0 || (n & (n - 1)) != 0,
             "loadMasked: length must be a power of two");
    b.andi(tmp, idx, static_cast<int64_t>(n - 1));
    b.lui(addr, static_cast<int64_t>(base));
    b.add(addr, addr, tmp);
    b.ld(val_reg, addr, 0);
}

void
PatternContext::storeSlot(Addr slot_addr, ArchReg out_reg)
{
    b.lui(addr, static_cast<int64_t>(slot_addr));
    b.st(out_reg, addr, 0);
}

void
kHammock(PatternContext &cx, ArchReg out_reg, ArchReg out_reg2,
         const HammockOpts &o)
{
    ProgramBuilder &b = cx.b;
    Addr flags = cx.biasedFlags(o.flagsLen, o.takenBias);

    cx.loadMasked(flags, o.flagsLen, PatternContext::val);
    // Seed the outputs from loop-invariant state: iterations are data
    // independent of each other (the common shape in real loops, and the
    // premise under which control independence preserves useful work).
    b.addi(out_reg, PatternContext::idx, 3);
    b.addi(out_reg2, PatternContext::idx, 17);

    auto then_lab = b.newLabel();
    auto join = b.newLabel();

    b.bne(PatternContext::val, regZero, then_lab);
    // else path: two independent chains
    for (int i = 0; i < o.elseLen; ++i) {
        if (i % 2)
            b.addi(out_reg, out_reg, 3);
        else
            b.addi(out_reg2, out_reg2, 7);
    }
    b.jmp(join);
    // then path
    b.bind(then_lab);
    for (int i = 0; i < o.thenLen; ++i) {
        if (i % 2)
            b.xori(out_reg, out_reg, 5);
        else
            b.xori(out_reg2, out_reg2, 9);
    }
    b.bind(join);
    b.add(out_reg, out_reg, out_reg2);
}

void
kNestedHammock(PatternContext &cx, ArchReg out_reg, double bias1,
               double bias2, int blk)
{
    ProgramBuilder &b = cx.b;
    Addr f1 = cx.biasedFlags(4096, bias1);
    Addr f2 = cx.biasedFlags(4096, bias2);
    ArchReg o2 = PatternContext::tmp2;

    cx.loadMasked(f1, 4096, PatternContext::val);
    cx.loadMasked(f2, 4096, o2);
    b.addi(out_reg, PatternContext::idx, 5);

    auto outer_then = b.newLabel();
    auto inner_then = b.newLabel();
    auto inner_join = b.newLabel();
    auto join = b.newLabel();

    b.bne(PatternContext::val, regZero, outer_then);
    for (int i = 0; i < blk; ++i)
        b.addi(out_reg, out_reg, 1);
    b.jmp(join);
    b.bind(outer_then);
    b.bne(o2, regZero, inner_then);
    for (int i = 0; i < blk; ++i)
        b.xori(out_reg, out_reg, 2);
    b.jmp(inner_join);
    b.bind(inner_then);
    for (int i = 0; i < blk; ++i)
        b.addi(out_reg, out_reg, 7);
    b.bind(inner_join);
    b.addi(out_reg, out_reg, 1);
    b.bind(join);
}

void
kInnerLoop(PatternContext &cx, ArchReg out_reg, int max_trips,
           int body_len, size_t trips_array_len)
{
    ProgramBuilder &b = cx.b;
    Addr trips = cx.array(trips_array_len, [&](size_t) {
        return 1 + static_cast<int64_t>(
            cx.rng.below(static_cast<uint64_t>(max_trips)));
    });
    ArchReg o2 = PatternContext::tmp2;

    cx.loadMasked(trips, trips_array_len, PatternContext::lcnt);
    b.addi(out_reg, PatternContext::idx, 7);
    b.addi(o2, PatternContext::idx, 11);
    auto top = b.newLabel();
    b.bind(top);
    for (int i = 0; i < body_len; ++i) {
        if (i % 2)
            b.addi(out_reg, out_reg, 1);
        else
            b.xori(o2, o2, 3);
    }
    b.addi(PatternContext::lcnt, PatternContext::lcnt, -1);
    b.bne(PatternContext::lcnt, regZero, top);
    b.add(out_reg, out_reg, o2);
}

void
kFixedLoop(PatternContext &cx, ArchReg out_reg, int trips, int body_len)
{
    ProgramBuilder &b = cx.b;
    ArchReg o2 = PatternContext::tmp2;
    b.li(PatternContext::lcnt, trips);
    b.addi(out_reg, PatternContext::idx, 13);
    b.addi(o2, PatternContext::idx, 19);
    auto top = b.newLabel();
    b.bind(top);
    for (int i = 0; i < body_len; ++i) {
        switch (i % 3) {
          case 0: b.addi(out_reg, out_reg, 5); break;
          case 1: b.xori(o2, o2, 11); break;
          default: b.addi(o2, o2, 1); break;
        }
    }
    b.addi(PatternContext::lcnt, PatternContext::lcnt, -1);
    b.bne(PatternContext::lcnt, regZero, top);
    b.add(out_reg, out_reg, o2);
}

void
kCompute(PatternContext &cx, ArchReg out_reg, int len)
{
    ProgramBuilder &b = cx.b;
    ArchReg a = out_reg;
    ArchReg c = PatternContext::tmp;
    ArchReg d = PatternContext::tmp2;
    ArchReg e = PatternContext::val;
    b.addi(a, PatternContext::idx, 23);
    b.addi(c, PatternContext::idx, 29);
    b.addi(d, PatternContext::idx, 31);
    b.addi(e, PatternContext::idx, 37);
    for (int i = 0; i < len; ++i) {
        switch (i % 4) {
          case 0: b.addi(a, a, 11); break;
          case 1: b.xori(c, c, 3); break;
          case 2: b.addi(d, d, 5); break;
          default: b.xori(e, e, 7); break;
        }
    }
    b.add(out_reg, out_reg, c);
}

void
kMemOps(PatternContext &cx, ArchReg out_reg, size_t array_len, int pairs)
{
    ProgramBuilder &b = cx.b;
    Addr arr = cx.array(array_len, [&](size_t i) {
        return static_cast<int64_t>(i * 7 + 1);
    });
    panic_if((array_len & (array_len - 1)) != 0,
             "kMemOps: array_len must be a power of two");

    b.addi(out_reg, PatternContext::idx, 41);
    for (int p = 0; p < pairs; ++p) {
        // addr = arr + ((idx*3 + p*17) & mask): strided walk.
        b.addi(PatternContext::tmp, PatternContext::idx, p * 17);
        b.andi(PatternContext::tmp, PatternContext::tmp,
               static_cast<int64_t>(array_len - 1));
        b.lui(PatternContext::addr, static_cast<int64_t>(arr));
        b.add(PatternContext::addr, PatternContext::addr,
              PatternContext::tmp);
        b.ld(PatternContext::val, PatternContext::addr, 0);
        b.addi(PatternContext::val, PatternContext::val, 1);
        b.st(PatternContext::val, PatternContext::addr, 0);
        // Read back through the ARB (store-to-load forwarding).
        b.ld(PatternContext::tmp2, PatternContext::addr, 0);
        b.add(out_reg, out_reg, PatternContext::tmp2);
    }
}

void
kSwitch(PatternContext &cx, ArchReg out_reg, int num_cases, int case_len,
        double reuse_bias)
{
    ProgramBuilder &b = cx.b;
    panic_if((num_cases & (num_cases - 1)) != 0,
             "kSwitch: num_cases must be a power of two");

    // Case selectors: with probability reuse_bias repeat the previous
    // case (predictable phases), otherwise uniform.
    int64_t prev = 0;
    Addr sel = cx.array(4096, [&](size_t) {
        if (!cx.rng.chance(reuse_bias))
            prev = static_cast<int64_t>(cx.rng.below(num_cases));
        return prev;
    });

    // Pad each case to a power-of-two stride so the target is base +
    // case * stride (computed goto without a memory jump table).
    int stride = 1;
    while (stride < case_len + 1)
        stride <<= 1;

    cx.loadMasked(sel, 4096, PatternContext::val);
    auto join = b.newLabel();

    b.addi(out_reg, PatternContext::idx, 43);
    b.slli(PatternContext::tmp, PatternContext::val,
           __builtin_ctz(static_cast<unsigned>(stride)));
    // case_base = here + 3 (the lui, add, jr below).
    Addr case_base = b.here() + 3;
    b.lui(PatternContext::tmp2, static_cast<int64_t>(case_base));
    b.add(PatternContext::tmp2, PatternContext::tmp2, PatternContext::tmp);
    b.jr(PatternContext::tmp2);

    for (int c = 0; c < num_cases; ++c) {
        Addr start = b.here();
        panic_if(start != case_base + static_cast<Addr>(c) * stride,
                 "kSwitch: case layout drifted");
        ArchReg o2 = PatternContext::tmp;
        for (int i = 0; i < case_len; ++i) {
            if (i % 2)
                b.addi(out_reg, out_reg, c + 1);
            else
                b.xori(o2, o2, c + 3);
        }
        b.jmp(join);
        while (b.here() < start + static_cast<Addr>(stride))
            b.nop();
    }
    b.bind(join);
}

void
kGuardedCall(PatternContext &cx, double bias, ProgramBuilder::Label f)
{
    ProgramBuilder &b = cx.b;
    Addr flags = cx.biasedFlags(4096, bias);
    cx.loadMasked(flags, 4096, PatternContext::val);
    auto skip = b.newLabel();
    b.beq(PatternContext::val, regZero, skip);
    b.call(f);
    b.bind(skip);
}

void
kLongIf(PatternContext &cx, ArchReg out_reg, double bias, int body_len)
{
    ProgramBuilder &b = cx.b;
    Addr flags = cx.biasedFlags(4096, bias);
    cx.loadMasked(flags, 4096, PatternContext::val);
    auto skip = b.newLabel();
    ArchReg o2 = PatternContext::tmp2;
    b.addi(out_reg, PatternContext::idx, 47);
    b.addi(o2, PatternContext::idx, 53);
    b.beq(PatternContext::val, regZero, skip);
    for (int i = 0; i < body_len; ++i) {
        if (i % 2)
            b.addi(out_reg, out_reg, 3);
        else
            b.xori(o2, o2, 6);
    }
    b.bind(skip);
    b.add(out_reg, out_reg, o2);
}

void
kLoopWithBreak(PatternContext &cx, ArchReg out_reg, int trips,
               double break_bias, int body_len)
{
    ProgramBuilder &b = cx.b;
    // Break threshold per visit: 0 (no break) with probability
    // 1 - break_bias, otherwise a uniform iteration count.
    Addr thresh = cx.array(4096, [&](size_t) -> int64_t {
        if (!cx.rng.chance(break_bias))
            return 0;
        return 1 + static_cast<int64_t>(
            cx.rng.below(static_cast<uint64_t>(trips - 1)));
    });
    ArchReg o2 = PatternContext::tmp2;

    b.li(PatternContext::lcnt, trips);
    cx.loadMasked(thresh, 4096, PatternContext::val);
    b.addi(out_reg, PatternContext::idx, 59);
    b.addi(o2, PatternContext::idx, 61);
    auto top = b.newLabel();
    auto done = b.newLabel();
    b.bind(top);
    for (int i = 0; i < body_len; ++i) {
        if (i % 2)
            b.addi(out_reg, out_reg, 1);
        else
            b.xori(o2, o2, 3);
    }
    // Data-dependent early break: a forward branch whose region spans
    // the backward loop branch (not FGCI-embeddable).
    b.beq(PatternContext::lcnt, PatternContext::val, done);
    b.addi(PatternContext::lcnt, PatternContext::lcnt, -1);
    b.bne(PatternContext::lcnt, regZero, top);
    b.bind(done);
    b.add(out_reg, out_reg, o2);
}

ProgramBuilder::Label
buildLeafFunc(PatternContext &cx, int body_len, double hammock_bias)
{
    ProgramBuilder &b = cx.b;
    auto entry = b.newLabel();
    b.bind(entry);
    constexpr ArchReg f1 = PatternContext::fn1;
    constexpr ArchReg f2 = PatternContext::fn2;
    b.addi(f1, PatternContext::idx, 67);
    b.addi(f2, PatternContext::idx, 71);
    for (int i = 0; i < body_len; ++i) {
        if (i % 2)
            b.addi(f1, f1, 5);
        else
            b.xori(f2, f2, 13);
    }
    if (hammock_bias > 0.0) {
        Addr flags = cx.biasedFlags(4096, hammock_bias);
        cx.loadMasked(flags, 4096, PatternContext::fn3);
        auto then_lab = b.newLabel();
        auto join = b.newLabel();
        b.bne(PatternContext::fn3, regZero, then_lab);
        b.addi(f1, f1, 9);
        b.addi(f2, f2, 2);
        b.jmp(join);
        b.bind(then_lab);
        b.xori(f1, f1, 4);
        b.bind(join);
    }
    b.add(f1, f1, f2);
    b.ret();
    return entry;
}

ProgramBuilder::Label
buildNestedFunc(PatternContext &cx, ProgramBuilder::Label leaf,
                int body_len)
{
    ProgramBuilder &b = cx.b;
    // One static stack slot suffices: the outer function is not
    // recursive and is never re-entered concurrently.
    Addr ra_slot = cx.slot();

    auto entry = b.newLabel();
    b.bind(entry);
    b.lui(PatternContext::addr, static_cast<int64_t>(ra_slot));
    b.st(regRa, PatternContext::addr, 0);
    for (int i = 0; i < body_len; ++i)
        b.addi(PatternContext::fn3, PatternContext::fn3, 3);
    b.call(leaf);
    b.lui(PatternContext::addr, static_cast<int64_t>(ra_slot));
    b.ld(regRa, PatternContext::addr, 0);
    b.ret();
    return entry;
}

void
kCall(PatternContext &cx, ProgramBuilder::Label f)
{
    cx.b.call(f);
}

} // namespace tproc
