/**
 * @file
 * google-benchmark microbenchmarks of the substrate components: FGCI
 * region analysis throughput, trace selection, trace cache, next-trace
 * predictor, ARB traffic, and whole-processor simulation rate.
 */

#include <benchmark/benchmark.h>

#include "arb/arb.hh"
#include "bpred/branch_predictor.hh"
#include "core/runner.hh"
#include "tcache/trace_cache.hh"
#include "tpred/trace_predictor.hh"
#include "trace/fgci.hh"
#include "trace/selection.hh"
#include "workloads/workloads.hh"

using namespace tproc;

namespace
{

const Workload &
gccWorkload()
{
    static Workload w = makeWorkload("gcc", 1);
    return w;
}

void
BM_FgciAnalyze(benchmark::State &state)
{
    const Program &prog = gccWorkload().program;
    // Gather forward conditional branches once.
    std::vector<Addr> branches;
    for (Addr pc = 0; pc < prog.size(); ++pc) {
        if (isForwardBranch(prog.fetch(pc), pc))
            branches.push_back(pc);
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analyzeFgci(prog, branches[i % branches.size()], 32));
        ++i;
    }
}
BENCHMARK(BM_FgciAnalyze);

void
BM_TraceSelection(benchmark::State &state)
{
    const Program &prog = gccWorkload().program;
    SelectionParams params;
    params.fg = true;
    Bit bit;
    TraceSelector sel(prog, params, &bit);
    BranchOracle oracle = [](int, Addr, const Instruction &, bool) {
        return true;
    };
    for (auto _ : state) {
        auto r = sel.select(prog.entry, oracle);
        benchmark::DoNotOptimize(r.trace.slots.size());
    }
}
BENCHMARK(BM_TraceSelection);

void
BM_TraceCacheLookup(benchmark::State &state)
{
    TraceCache tc;
    std::vector<TraceId> ids;
    for (int i = 0; i < 512; ++i) {
        auto tr = std::make_shared<Trace>();
        tr->id.startPc = static_cast<Addr>(i * 7);
        tr->id.outcomes = static_cast<uint32_t>(i);
        tr->id.numBranches = 8;
        ids.push_back(tr->id);
        tc.insert(std::move(tr));
    }
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tc.lookup(ids[i % ids.size()]));
        ++i;
    }
}
BENCHMARK(BM_TraceCacheLookup);

void
BM_TracePredictor(benchmark::State &state)
{
    TracePredictor tp;
    PathHistory hist;
    TraceId id;
    id.startPc = 100;
    for (auto _ : state) {
        auto p = tp.predict(hist);
        benchmark::DoNotOptimize(p);
        tp.update(hist, id);
        hist.push(id);
        id.startPc = (id.startPc * 31 + 7) & 0xffff;
    }
}
BENCHMARK(BM_TracePredictor);

void
BM_ArbStoreLoad(benchmark::State &state)
{
    // One PE at the window head, re-used by a new trace every
    // iteration (each trace retires before the next dispatches).
    Arb arb(1);
    arb.setPosition(0, 0);
    SparseMemory mem;
    TraceUid uid = 0;
    for (auto _ : state) {
        Addr a = uid % 64;
        arb.storePerform(0, uid, 1, a, static_cast<int64_t>(uid));
        auto r = arb.loadAccess(0, uid, 2, a, mem);
        benchmark::DoNotOptimize(r.value);
        arb.loadRemove(0, 2);
        arb.commitStore(0, 1, mem);
        ++uid;
    }
}
BENCHMARK(BM_ArbStoreLoad);

void
BM_ProcessorSimRate(benchmark::State &state)
{
    const Workload &w = gccWorkload();
    for (auto _ : state) {
        ProcessorConfig cfg = ProcessorConfig::forModel("FG+MLB-RET");
        cfg.verifyRetirement = false;
        Processor p(w.program, cfg);
        const ProcessorStats &s = p.run(20000);
        benchmark::DoNotOptimize(s.cycles);
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<int64_t>(s.retiredInsts));
    }
}
BENCHMARK(BM_ProcessorSimRate)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
