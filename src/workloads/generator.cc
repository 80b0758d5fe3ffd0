#include "workloads/generator.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/parse.hh"
#include "common/random.hh"
#include "workloads/patterns.hh"

namespace tproc
{

namespace
{

using PC = PatternContext;

constexpr const char *genPrefix = "gen:";

/** FNV-1a over the mix string: a stable cross-process spec hash. */
uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** splitmix64 finalizer: decorrelate combined seed material. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

int
sample(Rng &rng, const KnobRange &r)
{
    return static_cast<int>(rng.range(r.lo, r.hi));
}

double
sample(Rng &rng, const KnobRangeF &r)
{
    const double u =
        static_cast<double>(rng.next() >> 11) * (1.0 / 9007199254740992.0);
    return r.lo + u * (r.hi - r.lo);
}

double
clampBias(double b)
{
    return std::min(0.995, std::max(0.5, b));
}

std::vector<WorkloadPattern>
makeBuiltins()
{
    std::vector<WorkloadPattern> v;

    WorkloadPattern fgci;
    fgci.name = "fgci";
    fgci.note = "FGCI-heavy, small noisy regions, high misp rate";
    fgci.fgciRegions = {5, 7};
    fgci.fgciSize = {3, 5};
    fgci.nestedRegions = {0, 1};
    fgci.mispTarget = {0.10, 0.16};
    fgci.forwardBranches = {1, 2};
    fgci.loops = {1, 1};
    fgci.loopTrips = {16, 32};
    fgci.loopPredictability = {0.3, 0.6};
    fgci.memKernels = {1, 1};
    fgci.memPairs = {1, 2};
    fgci.aliasLogLen = {9, 11};
    fgci.computeLen = {4, 8};
    fgci.callDepth = {1, 1};
    fgci.baseIters = 12000;
    v.push_back(fgci);

    WorkloadPattern forward;
    forward.name = "forward";
    forward.note = "forward-branch heavy, medium FGCI regions";
    forward.fgciRegions = {3, 4};
    forward.fgciSize = {7, 9};
    forward.nestedRegions = {1, 1};
    forward.mispTarget = {0.03, 0.06};
    forward.forwardBranches = {3, 4};
    forward.loops = {1, 1};
    forward.loopTrips = {10, 20};
    forward.loopPredictability = {0.6, 0.9};
    forward.memKernels = {1, 1};
    forward.aliasLogLen = {11, 13};
    forward.switchCasesLog = {4, 4};
    forward.switchReuse = {0.7, 0.85};
    forward.computeLen = {8, 12};
    forward.callDepth = {1, 2};
    forward.baseIters = 5000;
    v.push_back(forward);

    WorkloadPattern noisy;
    noisy.name = "noisy";
    noisy.note = "noisy branches everywhere, clustered mispredictions";
    noisy.fgciRegions = {4, 5};
    noisy.fgciSize = {9, 11};
    noisy.nestedRegions = {1, 1};
    noisy.mispTarget = {0.09, 0.15};
    noisy.forwardBranches = {2, 3};
    noisy.loops = {1, 2};
    noisy.loopTrips = {8, 16};
    noisy.loopPredictability = {0.3, 0.7};
    noisy.memKernels = {1, 1};
    noisy.aliasLogLen = {10, 12};
    noisy.switchCasesLog = {5, 5};
    noisy.switchReuse = {0.45, 0.65};
    noisy.computeLen = {6, 10};
    noisy.baseIters = 4200;
    v.push_back(noisy);

    WorkloadPattern regions;
    regions.name = "regions";
    regions.note = "huge FGCI regions, predictable loops, high ILP";
    regions.fgciRegions = {5, 6};
    regions.fgciSize = {12, 14};
    regions.nestedRegions = {0, 0};
    regions.mispTarget = {0.08, 0.11};
    regions.forwardBranches = {1, 1};
    regions.loops = {1, 2};
    regions.loopTrips = {32, 48};
    regions.loopPredictability = {0.9, 1.0};
    regions.memKernels = {1, 1};
    regions.aliasLogLen = {12, 14};
    regions.computeLen = {10, 12};
    regions.baseIters = 3400;
    v.push_back(regions);

    WorkloadPattern loops;
    loops.name = "loops";
    loops.note = "unpredictable loop exits dominate misp.; many returns";
    loops.fgciRegions = {1, 1};
    loops.fgciSize = {3, 3};
    loops.nestedRegions = {0, 0};
    loops.mispTarget = {0.01, 0.02};
    loops.forwardBranches = {2, 2};
    loops.loops = {2, 3};
    loops.loopTrips = {32, 64};
    loops.loopPredictability = {0.0, 0.3};
    loops.memKernels = {0, 1};
    loops.aliasLogLen = {11, 12};
    loops.computeLen = {6, 8};
    loops.callDepth = {2, 2};
    loops.baseIters = 2600;
    v.push_back(loops);

    WorkloadPattern steady;
    steady.name = "steady";
    steady.note = "highly predictable; FGCI branches dominate rare misp.";
    steady.fgciRegions = {4, 5};
    steady.fgciSize = {4, 4};
    steady.nestedRegions = {1, 1};
    steady.mispTarget = {0.005, 0.012};
    steady.forwardBranches = {2, 2};
    steady.loops = {1, 1};
    steady.loopTrips = {100, 200};
    steady.loopPredictability = {1.0, 1.0};
    steady.memKernels = {1, 1};
    steady.aliasLogLen = {11, 11};
    steady.computeLen = {6, 8};
    steady.baseIters = 2400;
    v.push_back(steady);

    WorkloadPattern dispatch;
    dispatch.name = "dispatch";
    dispatch.note = "dispatch loop, predictable forward branches";
    dispatch.fgciRegions = {3, 4};
    dispatch.fgciSize = {4, 5};
    dispatch.nestedRegions = {0, 0};
    dispatch.mispTarget = {0.008, 0.015};
    dispatch.forwardBranches = {2, 3};
    dispatch.loops = {1, 1};
    dispatch.loopTrips = {60, 120};
    dispatch.loopPredictability = {0.9, 1.0};
    dispatch.memKernels = {1, 1};
    dispatch.aliasLogLen = {11, 11};
    dispatch.switchCasesLog = {4, 4};
    dispatch.switchReuse = {0.88, 0.95};
    dispatch.computeLen = {8, 12};
    dispatch.baseIters = 2800;
    v.push_back(dispatch);

    WorkloadPattern memory;
    memory.name = "memory";
    memory.note = "call-heavy, predictable branches, memory traffic";
    memory.fgciRegions = {3, 4};
    memory.fgciSize = {5, 6};
    memory.nestedRegions = {0, 0};
    memory.mispTarget = {0.004, 0.010};
    memory.forwardBranches = {2, 2};
    memory.loops = {1, 1};
    memory.loopTrips = {80, 150};
    memory.loopPredictability = {0.9, 1.0};
    memory.memKernels = {2, 3};
    memory.memPairs = {2, 3};
    memory.aliasLogLen = {12, 14};
    memory.computeLen = {6, 8};
    memory.callDepth = {2, 2};
    memory.baseIters = 3000;
    v.push_back(memory);

    return v;
}

[[noreturn]] void
badMix(const std::string &mix, const std::string &why)
{
    std::ostringstream os;
    os << "bad pattern mix '" << mix << "': " << why
       << "; expected <pattern>[*<weight>][+<pattern>[*<weight>]...] "
          "with patterns:";
    for (const auto &n : generatorPatternNames())
        os << " " << n;
    os << ", or 'all'";
    throw UnknownWorkloadError(os.str());
}

const WorkloadPattern *
findPattern(const std::string &name)
{
    for (const WorkloadPattern &p : builtinPatterns()) {
        if (p.name == name)
            return &p;
    }
    return nullptr;
}

} // anonymous namespace

const std::vector<WorkloadPattern> &
builtinPatterns()
{
    static const std::vector<WorkloadPattern> patterns = makeBuiltins();
    return patterns;
}

std::vector<std::string>
generatorPatternNames()
{
    std::vector<std::string> names;
    for (const WorkloadPattern &p : builtinPatterns())
        names.push_back(p.name);
    return names;
}

std::vector<PatternShare>
parsePatternMix(const std::string &mix)
{
    if (mix.empty())
        badMix(mix, "empty spec");
    std::vector<PatternShare> shares;
    if (mix == "all") {
        for (const WorkloadPattern &p : builtinPatterns())
            shares.push_back({&p, 1});
        return shares;
    }
    uint64_t total = 0;     // the weighted draw's bound must not wrap
    size_t pos = 0;
    while (pos <= mix.size()) {
        size_t plus = mix.find('+', pos);
        if (plus == std::string::npos)
            plus = mix.size();
        std::string term = mix.substr(pos, plus - pos);
        if (term.empty())
            badMix(mix, "empty term");
        uint64_t weight = 1;
        size_t star = term.find('*');
        if (star != std::string::npos) {
            const std::string w = term.substr(star + 1);
            term = term.substr(0, star);
            if (!parseU64(w, weight))
                badMix(mix, "weight '" + w + "' is not a positive integer");
            if (weight == 0)
                badMix(mix, "weight must be >= 1");
        }
        if (weight > UINT64_MAX - total)
            badMix(mix, "weights sum past 2^64 - 1");
        total += weight;
        const WorkloadPattern *p = findPattern(term);
        if (!p)
            badMix(mix, "unknown pattern '" + term + "'");
        shares.push_back({p, weight});
        pos = plus + 1;
    }
    return shares;
}

bool
isGeneratedName(const std::string &name)
{
    return name.rfind(genPrefix, 0) == 0;
}

std::string
generatedName(const std::string &mix, uint64_t index)
{
    return genPrefix + mix + ":" + std::to_string(index);
}

namespace
{

struct ParsedGenName
{
    std::string mix;
    uint64_t index;
    std::vector<PatternShare> shares;
};

ParsedGenName
parseGeneratedName(const std::string &name)
{
    if (!isGeneratedName(name)) {
        throw UnknownWorkloadError("not a generated-workload name: '" +
                                   name + "'");
    }
    const std::string rest = name.substr(std::strlen(genPrefix));
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
        throw UnknownWorkloadError(
            "malformed generated-workload name '" + name +
            "'; expected gen:<pattern-mix>:<index>");
    }
    ParsedGenName p;
    p.mix = rest.substr(0, colon);
    const std::string idxStr = rest.substr(colon + 1);
    if (!parseU64(idxStr, p.index)) {
        throw UnknownWorkloadError("generated-workload index '" + idxStr +
                                   "' is not a non-negative integer");
    }
    p.shares = parsePatternMix(p.mix);
    return p;
}

} // anonymous namespace

void
validateGeneratedName(const std::string &name)
{
    parseGeneratedName(name);
}

Workload
makeGeneratedWorkload(const std::string &name, uint64_t seed, double scale)
{
    const ParsedGenName parsed = parseGeneratedName(name);
    const std::string &mixStr = parsed.mix;
    const uint64_t index = parsed.index;
    const std::vector<PatternShare> &mix = parsed.shares;

    // All randomness — pattern draw, knob sampling, data image — flows
    // from one stream fully determined by (mix string, index, seed), so
    // the same name+seed rebuilds a byte-identical program anywhere.
    Rng rng(mix64(fnv1a(mixStr)) ^ mix64(index) ^ mix64(mix64(seed)));

    uint64_t totalWeight = 0;
    for (const PatternShare &s : mix)
        totalWeight += s.weight;
    uint64_t draw = rng.below(totalWeight);
    const WorkloadPattern *pat = mix.back().pattern;
    for (const PatternShare &s : mix) {
        if (draw < s.weight) {
            pat = s.pattern;
            break;
        }
        draw -= s.weight;
    }

    // Sample every knob in a fixed order (determinism is order-fragile).
    const int regions = sample(rng, pat->fgciRegions);
    const int regionSize = std::max(1, sample(rng, pat->fgciSize));
    const int nested = sample(rng, pat->nestedRegions);
    const double misp = sample(rng, pat->mispTarget);
    const int fwd = sample(rng, pat->forwardBranches);
    const int longIf = sample(rng, pat->longIfBody);
    const int loops = sample(rng, pat->loops);
    const int trips = std::max(1, sample(rng, pat->loopTrips));
    const double loopPred = sample(rng, pat->loopPredictability);
    const int memKernels = sample(rng, pat->memKernels);
    const int memPairs = std::max(1, sample(rng, pat->memPairs));
    const int aliasLog = std::max(4, sample(rng, pat->aliasLogLen));
    const int switchLog = sample(rng, pat->switchCasesLog);
    const double switchReuse = sample(rng, pat->switchReuse);
    const int compute = std::max(2, sample(rng, pat->computeLen));
    const int callDepth = sample(rng, pat->callDepth);

    // The FGCI hammock bias realizes the misprediction target; other
    // forward branches are the more predictable class (Table 5).
    const double fgciBias = clampBias(1.0 - misp);
    const double fwdBias = clampBias(1.0 - misp / 2.0);

    ProgramBuilder b(name);
    PatternContext cx(b, rng, workloadDataBase);

    auto start = b.newLabel();
    b.jmp(start);
    auto leaf = buildLeafFunc(cx, 3 + compute / 3, 0.0);
    auto callee = callDepth >= 2 ? buildNestedFunc(cx, leaf, 4) : leaf;
    b.bind(start);

    const int64_t iters = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(
               static_cast<double>(pat->baseIters) * scale)));
    auto top = workloadPrologue(b, iters);

    int oi = 0;
    if (switchLog > 0) {
        kSwitch(cx, PC::out(oi++), 1 << switchLog, 8 + compute / 2,
                switchReuse);
    }
    for (int r = 0; r < regions; ++r) {
        HammockOpts o;
        o.takenBias = clampBias(fgciBias + 0.005 * (r % 3));
        o.thenLen = regionSize + (r % 2);
        o.elseLen = std::max(1, regionSize - 1);
        kHammock(cx, PC::out(oi), PC::out(oi + 1), o);
        ++oi;
    }
    for (int n = 0; n < nested; ++n) {
        kNestedHammock(cx, PC::out(oi++), clampBias(fgciBias + 0.01),
                       fgciBias, std::max(2, regionSize / 2));
    }
    for (int f = 0; f < fwd; ++f) {
        switch (f % 3) {
          case 0:
            kGuardedCall(cx, fwdBias, callee);
            break;
          case 1:
            kLongIf(cx, PC::out(oi++), fwdBias, longIf);
            break;
          default:
            kLoopWithBreak(cx, PC::out(oi++), 10 + trips % 8,
                           std::min(0.5, std::max(0.05, misp * 3.0)), 2);
            break;
        }
    }
    for (int l = 0; l < loops; ++l) {
        if (rng.chance(loopPred))
            kFixedLoop(cx, PC::out(oi++), trips, 1 + compute / 6);
        else
            kInnerLoop(cx, PC::out(oi++), trips, 1 + compute / 6);
    }
    for (int m = 0; m < memKernels; ++m) {
        kMemOps(cx, PC::out(oi++), static_cast<size_t>(1) << aliasLog,
                memPairs);
    }
    kCompute(cx, PC::out(oi), compute);
    workloadEpilogue(b, top);

    return {name, b.finish(), 6'000'000, pat->note};
}

} // namespace tproc
