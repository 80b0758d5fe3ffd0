#include "workloads/workloads.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "workloads/generator.hh"
#include "workloads/patterns.hh"

namespace tproc
{

ProgramBuilder::Label
workloadPrologue(ProgramBuilder &b, int64_t iters)
{
    using PC = PatternContext;
    b.li(PC::idx, 0);
    b.li(PC::acc, 0);
    for (int i = 0; i < PC::outCount; ++i)
        b.li(PC::out(i), i + 1);
    b.li(PC::cnt, iters);
    auto top = b.newLabel();
    b.bind(top);
    b.addi(PC::idx, PC::idx, 1);
    return top;
}

void
workloadEpilogue(ProgramBuilder &b, ProgramBuilder::Label top)
{
    using PC = PatternContext;
    b.addi(PC::cnt, PC::cnt, -1);
    b.bne(PC::cnt, regZero, top);
    // Fold the outputs so nothing is trivially dead, then publish.
    for (int i = 0; i < PC::outCount; ++i)
        b.add(PC::acc, PC::acc, PC::out(i));
    b.lui(PC::addr, workloadDataBase - 1);
    b.st(PC::acc, PC::addr, 0);
    b.halt();
}

namespace
{

constexpr Addr dataBase = workloadDataBase;

using PC = PatternContext;

constexpr auto prologue = workloadPrologue;
constexpr auto epilogue = workloadEpilogue;

/** The longest outer loop of any workload at scale 1: compress's. The
 *  other analogs run 2200..5200 iterations and the generator's
 *  patterns 2400..12000. */
constexpr double longestBaseIters = 16000;

/** An analog's outer-loop count: `base` iterations at scale 1 and at
 *  least one, since workloadEpilogue's countdown would wrap from 0. */
int64_t
scaledIters(double base, double scale)
{
    return std::max<int64_t>(1, static_cast<int64_t>(base * scale));
}

/**
 * compress analog. Table 5 targets: FGCI branches ~41% of branches and
 * ~63% of mispredictions with small regions (~4-6 instructions); overall
 * ~13.5 branch mispredictions per 1000 instructions.
 */
Workload
makeCompress(uint64_t seed, double scale)
{
    ProgramBuilder b("compress");
    Rng rng(seed * 0x1001);
    PatternContext cx(b, rng, dataBase);

    auto start = b.newLabel();
    b.jmp(start);
    auto leaf = buildLeafFunc(cx, 4, 0.0);
    b.bind(start);

    auto top = prologue(b, scaledIters(16000, scale));
    for (int i = 0; i < 6; ++i) {
        HammockOpts o;
        o.takenBias = 0.86 + 0.02 * (i % 3);
        o.thenLen = 3 + i % 2;
        o.elseLen = 3;
        kHammock(cx, PC::out(i), PC::out(i + 1), o);
    }
    kGuardedCall(cx, 0.92, leaf);
    kGuardedCall(cx, 0.94, leaf);
    kMemOps(cx, PC::out(6), 1024, 2);
    kInnerLoop(cx, PC::out(7), 24, 1);
    epilogue(b, top);

    return {"compress", b.finish(), 6'000'000,
            "FGCI-heavy, small noisy regions, high misp rate"};
}

/**
 * gcc analog: large static footprint, many moderately predictable
 * forward branches, medium FGCI regions (~11), ~4.7 misp/1k insts.
 */
Workload
makeGcc(uint64_t seed, double scale)
{
    ProgramBuilder b("gcc");
    Rng rng(seed * 0x2002);
    PatternContext cx(b, rng, dataBase);

    auto start = b.newLabel();
    b.jmp(start);
    auto leaf = buildLeafFunc(cx, 6, 0.97);
    b.bind(start);

    auto top = prologue(b, scaledIters(5200, scale));
    kSwitch(cx, PC::out(0), 16, 12, 0.8);
    for (int i = 0; i < 3; ++i) {
        HammockOpts o;
        o.takenBias = 0.95 + 0.01 * (i % 3);
        o.thenLen = 9;
        o.elseLen = 7;
        kHammock(cx, PC::out(i + 1), PC::out(i + 2), o);
    }
    kNestedHammock(cx, PC::out(4), 0.96, 0.95, 4);
    kGuardedCall(cx, 0.96, leaf);
    kGuardedCall(cx, 0.97, leaf);
    kGuardedCall(cx, 0.95, leaf);
    kLongIf(cx, PC::out(5), 0.97, 40);
    kCompute(cx, PC::out(5), 10);
    kLoopWithBreak(cx, PC::out(6), 14, 0.3, 2);
    kMemOps(cx, PC::out(7), 4096, 2);
    epilogue(b, top);

    return {"gcc", b.finish(), 6'000'000,
            "forward-branch heavy, medium FGCI regions, moderate misp"};
}

/**
 * go analog: noisy branches everywhere (~10.4 misp/1k), clustered
 * mispredictions, larger regions (~14), big instruction footprint.
 */
Workload
makeGo(uint64_t seed, double scale)
{
    ProgramBuilder b("go");
    Rng rng(seed * 0x3003);
    PatternContext cx(b, rng, dataBase);

    auto start = b.newLabel();
    b.jmp(start);
    auto leaf = buildLeafFunc(cx, 5, 0.0);
    b.bind(start);

    auto top = prologue(b, scaledIters(4200, scale));
    kSwitch(cx, PC::out(0), 32, 10, 0.55);
    for (int i = 0; i < 4; ++i) {
        HammockOpts o;
        o.takenBias = 0.85 + 0.02 * (i % 4);
        o.thenLen = 11;
        o.elseLen = 9;
        kHammock(cx, PC::out(i + 1), PC::out(i + 2), o);
    }
    kNestedHammock(cx, PC::out(5), 0.88, 0.85, 5);
    kGuardedCall(cx, 0.88, leaf);
    kGuardedCall(cx, 0.9, leaf);
    kLongIf(cx, PC::out(6), 0.9, 38);
    kLoopWithBreak(cx, PC::out(6), 12, 0.5, 3);
    kCompute(cx, PC::out(7), 8);
    kMemOps(cx, PC::out(0), 2048, 1);
    epilogue(b, top);

    return {"go", b.finish(), 6'000'000,
            "noisy branches, clustered mispredictions"};
}

/**
 * jpeg analog: very large FGCI regions (~32) holding most of the
 * mispredictions; backward branches abundant but predictable; high ILP.
 */
Workload
makeJpeg(uint64_t seed, double scale)
{
    ProgramBuilder b("jpeg");
    Rng rng(seed * 0x4004);
    PatternContext cx(b, rng, dataBase);

    auto start = b.newLabel();
    b.jmp(start);
    auto leaf = buildLeafFunc(cx, 6, 0.0);
    b.bind(start);

    auto top = prologue(b, scaledIters(3400, scale));
    for (int i = 0; i < 6; ++i) {
        HammockOpts o;
        o.takenBias = 0.9;
        o.thenLen = 14;
        o.elseLen = 13;
        kHammock(cx, PC::out(i), PC::out(i + 1), o);
    }
    // Predictable pixel-row loops with wide bodies.
    kFixedLoop(cx, PC::out(2), 40, 4);
    kGuardedCall(cx, 0.97, leaf);
    kCompute(cx, PC::out(5), 12);
    kMemOps(cx, PC::out(6), 8192, 2);
    epilogue(b, top);

    return {"jpeg", b.finish(), 6'000'000,
            "huge FGCI regions, predictable loops, high ILP"};
}

/**
 * li analog: backward-branch mispredictions dominate (~61% of misp.)
 * via short unpredictable loops; frequent calls/returns; few FGCI
 * branches; ~5.1 misp/1k.
 */
Workload
makeLi(uint64_t seed, double scale)
{
    ProgramBuilder b("li");
    Rng rng(seed * 0x5005);
    PatternContext cx(b, rng, dataBase);

    auto start = b.newLabel();
    b.jmp(start);
    auto leaf = buildLeafFunc(cx, 4, 0.0);
    auto nested = buildNestedFunc(cx, leaf, 4);
    b.bind(start);

    auto top = prologue(b, scaledIters(2600, scale));
    kInnerLoop(cx, PC::out(0), 48, 2);
    kCall(cx, nested);
    kCompute(cx, PC::out(1), 8);
    kInnerLoop(cx, PC::out(2), 64, 2);
    kCall(cx, leaf);
    kGuardedCall(cx, 0.985, leaf);
    kGuardedCall(cx, 0.98, leaf);
    kCompute(cx, PC::out(3), 6);
    HammockOpts o;
    o.takenBias = 0.99;
    o.thenLen = 3;
    o.elseLen = 3;
    kHammock(cx, PC::out(4), PC::out(5), o);
    epilogue(b, top);

    return {"li", b.finish(), 6'000'000,
            "unpredictable loop exits dominate misp.; many returns"};
}

/**
 * m88ksim analog: everything highly predictable (~1.2 misp/1k), plenty
 * of FGCI-shaped branches that rarely mispredict.
 */
Workload
makeM88ksim(uint64_t seed, double scale)
{
    ProgramBuilder b("m88ksim");
    Rng rng(seed * 0x6006);
    PatternContext cx(b, rng, dataBase);

    auto start = b.newLabel();
    b.jmp(start);
    auto leaf = buildLeafFunc(cx, 4, 0.0);
    b.bind(start);

    auto top = prologue(b, scaledIters(2200, scale));
    for (int i = 0; i < 5; ++i) {
        HammockOpts o;
        o.takenBias = 0.993;
        o.thenLen = 4;
        o.elseLen = 4;
        kHammock(cx, PC::out(i), PC::out(i + 1), o);
    }
    kNestedHammock(cx, PC::out(4), 0.995, 0.99, 3);
    kFixedLoop(cx, PC::out(5), 200, 1);
    kGuardedCall(cx, 0.995, leaf);
    kGuardedCall(cx, 0.99, leaf);
    kMemOps(cx, PC::out(6), 2048, 1);
    kCompute(cx, PC::out(7), 8);
    epilogue(b, top);

    return {"m88ksim", b.finish(), 6'000'000,
            "highly predictable; FGCI branches dominate rare misp."};
}

/**
 * perl analog: interpreter dispatch (indirect jumps), mostly
 * predictable forward branches (~1.6 misp/1k), loop exits contribute a
 * third of mispredictions.
 */
Workload
makePerl(uint64_t seed, double scale)
{
    ProgramBuilder b("perl");
    Rng rng(seed * 0x7007);
    PatternContext cx(b, rng, dataBase);

    auto start = b.newLabel();
    b.jmp(start);
    auto leaf = buildLeafFunc(cx, 5, 0.0);
    b.bind(start);

    auto top = prologue(b, scaledIters(2800, scale));
    kSwitch(cx, PC::out(0), 16, 10, 0.92);
    for (int i = 0; i < 4; ++i) {
        HammockOpts o;
        o.takenBias = 0.99;
        o.thenLen = 5;
        o.elseLen = 4;
        kHammock(cx, PC::out(i + 1), PC::out(i + 2), o);
    }
    kGuardedCall(cx, 0.99, leaf);
    kGuardedCall(cx, 0.985, leaf);
    kGuardedCall(cx, 0.992, leaf);
    kCompute(cx, PC::out(5), 12);
    kFixedLoop(cx, PC::out(6), 120, 1);
    kMemOps(cx, PC::out(7), 2048, 1);
    epilogue(b, top);

    return {"perl", b.finish(), 6'000'000,
            "dispatch loop, predictable forward branches"};
}

/**
 * vortex analog: call-heavy database operations, very predictable
 * branches (~0.8 misp/1k), lots of memory traffic.
 */
Workload
makeVortex(uint64_t seed, double scale)
{
    ProgramBuilder b("vortex");
    Rng rng(seed * 0x8008);
    PatternContext cx(b, rng, dataBase);

    auto start = b.newLabel();
    b.jmp(start);
    auto leaf = buildLeafFunc(cx, 5, 0.995);
    auto leaf2 = buildLeafFunc(cx, 7, 0.99);
    auto nested = buildNestedFunc(cx, leaf, 3);
    b.bind(start);

    auto top = prologue(b, scaledIters(3000, scale));
    kCall(cx, leaf);
    for (int i = 0; i < 4; ++i) {
        HammockOpts o;
        o.takenBias = 0.995;
        o.thenLen = 6;
        o.elseLen = 5;
        kHammock(cx, PC::out(i), PC::out(i + 1), o);
    }
    kCall(cx, nested);
    kGuardedCall(cx, 0.995, leaf);
    kGuardedCall(cx, 0.997, leaf2);
    kMemOps(cx, PC::out(4), 8192, 3);
    kCall(cx, leaf2);
    kCompute(cx, PC::out(5), 8);
    kFixedLoop(cx, PC::out(6), 150, 1);
    epilogue(b, top);

    return {"vortex", b.finish(), 6'000'000,
            "call-heavy, predictable branches, memory traffic"};
}

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "compress", "gcc", "go", "jpeg", "li", "m88ksim", "perl", "vortex",
    };
    return names;
}

Workload
makeWorkload(const std::string &name, uint64_t seed, double scale)
{
    // NaN fails both comparisons; below 2^63 every count fits int64_t.
    if (!(scale > 0.0 && scale * longestBaseIters < 0x1p63)) {
        std::ostringstream os;
        os << "bad workload scale " << scale
           << " (want a positive number whose loop counts stay below "
              "2^63)";
        throw SimError(os.str());
    }
    if (isGeneratedName(name))
        return makeGeneratedWorkload(name, seed, scale);
    if (name == "compress")
        return makeCompress(seed, scale);
    if (name == "gcc")
        return makeGcc(seed, scale);
    if (name == "go")
        return makeGo(seed, scale);
    if (name == "jpeg")
        return makeJpeg(seed, scale);
    if (name == "li")
        return makeLi(seed, scale);
    if (name == "m88ksim")
        return makeM88ksim(seed, scale);
    if (name == "perl")
        return makePerl(seed, scale);
    if (name == "vortex")
        return makeVortex(seed, scale);
    std::ostringstream os;
    os << "unknown workload '" << name << "'; valid names:";
    for (const auto &n : workloadNames())
        os << " " << n;
    os << ", or gen:<pattern-mix>:<index> with patterns:";
    for (const auto &n : generatorPatternNames())
        os << " " << n;
    throw UnknownWorkloadError(os.str());
}

std::vector<Workload>
makeAllWorkloads(uint64_t seed, double scale)
{
    std::vector<Workload> all;
    for (const auto &n : workloadNames())
        all.push_back(makeWorkload(n, seed, scale));
    return all;
}

} // namespace tproc
