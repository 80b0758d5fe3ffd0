/**
 * @file
 * Code-pattern library for the synthetic SPEC95-analog workloads.
 *
 * The paper's evaluation is driven by branch behaviour: the mix of
 * small forward-branching (FGCI) regions, other forward branches, and
 * backward (loop) branches, and the misprediction rate of each class
 * (Table 5). These kernels let each workload dial in that profile:
 * branch outcomes are functions of pseudo-random data placed in the
 * program's initial memory image, so predictability is controlled by a
 * bias parameter, and everything is deterministic given the seed.
 *
 * Kernels compute into caller-assigned output registers and publish
 * results through stores rather than a single global accumulator, so
 * work after a branch region is genuinely control *and* data independent
 * of it — the premise under which control independence pays off (and the
 * behaviour real programs exhibit). Each kernel body carries a few
 * independent dependence chains for instruction-level parallelism.
 */

#ifndef TPROC_WORKLOADS_PATTERNS_HH
#define TPROC_WORKLOADS_PATTERNS_HH

#include <functional>

#include "common/random.hh"
#include "program/builder.hh"

namespace tproc
{

/**
 * Shared state while emitting a workload: the builder, the data-segment
 * allocator, and the register conventions all kernels follow.
 */
class PatternContext
{
  public:
    PatternContext(ProgramBuilder &builder, Rng &rng_, Addr data_base)
        : b(builder), rng(rng_), nextData(data_base)
    {}

    /** Allocate and initialize a data array; returns its base address. */
    Addr
    array(size_t n, const std::function<int64_t(size_t)> &gen)
    {
        Addr base = nextData;
        for (size_t i = 0; i < n; ++i)
            b.data(base + i, gen(i));
        nextData += n;
        return base;
    }

    /** Array of 0/1 flags that are 1 with probability p. */
    Addr
    biasedFlags(size_t n, double p)
    {
        return array(n, [&](size_t) {
            return rng.chance(p) ? 1 : 0;
        });
    }

    /** Allocate an uninitialized output slot. */
    Addr
    slot()
    {
        return nextData++;
    }

    /**
     * Emit "val = data[base + (idx & (n-1))]". n must be a power of two.
     * Clobbers tmp and addr.
     */
    void loadMasked(Addr base, size_t n, ArchReg val_reg);

    /** Emit "mem[slot] = out" through the addr scratch register. */
    void storeSlot(Addr slot_addr, ArchReg out);

    ProgramBuilder &b;
    Rng &rng;

    /** @name Register conventions. */
    /// @{
    static constexpr ArchReg idx = 10;  //!< rolling element index
    static constexpr ArchReg val = 11;  //!< loaded data value
    static constexpr ArchReg tmp = 12;
    static constexpr ArchReg tmp2 = 13;
    static constexpr ArchReg acc = 14;  //!< epilogue-only accumulator
    static constexpr ArchReg addr = 15; //!< address scratch
    static constexpr ArchReg cnt = 16;  //!< outer loop counter
    static constexpr ArchReg lcnt = 17; //!< inner loop counter
    /** Output register pool for kernels (rotate per kernel instance). */
    static constexpr ArchReg outBase = 20;
    static constexpr int outCount = 8;
    /** Registers reserved for functions. */
    static constexpr ArchReg fn1 = 28;
    static constexpr ArchReg fn2 = 29;
    static constexpr ArchReg fn3 = 30;
    /// @}

    /** The i-th output register of the rotating pool. */
    static ArchReg
    out(int i)
    {
        return static_cast<ArchReg>(outBase + (i % outCount));
    }

  private:
    Addr nextData;
};

/** Options for the hammock kernels. */
struct HammockOpts
{
    double takenBias = 0.9;     //!< P(branch taken)
    int thenLen = 4;            //!< ALU ops on the taken path
    int elseLen = 4;            //!< ALU ops on the not-taken path
    size_t flagsLen = 4096;     //!< backing random-flag array length
};

/**
 * A single if-then-else hammock computing into out_reg: a classic FGCI
 * embeddable region of size ~max(thenLen, elseLen) + 2. The body runs
 * two independent dependence chains (out_reg and out_reg+1 of the pool
 * via the second register argument).
 */
void kHammock(PatternContext &cx, ArchReg out_reg, ArchReg out_reg2,
              const HammockOpts &o);

/**
 * A nested hammock: if (f1) { ...; if (f2) {...} else {...} } else {...}
 * — exercises the FGCI algorithm on multi-branch forward regions.
 */
void kNestedHammock(PatternContext &cx, ArchReg out_reg, double bias1,
                    double bias2, int blk);

/**
 * An inner loop with a data-dependent trip count in [1, max_trips];
 * body_len ALU ops per iteration spread over two chains. The backward
 * branch mispredicts at unpredictable exits — CGCI/MLB territory.
 */
void kInnerLoop(PatternContext &cx, ArchReg out_reg, int max_trips,
                int body_len, size_t trips_array_len = 4096);

/** A fixed-trip-count (highly predictable) inner loop. */
void kFixedLoop(PatternContext &cx, ArchReg out_reg, int trips,
                int body_len);

/** Straight-line ALU filler over four independent chains. */
void kCompute(PatternContext &cx, ArchReg out_reg, int len);

/**
 * Strided loads and stores over an array with store-to-load forwarding
 * through the ARB.
 */
void kMemOps(PatternContext &cx, ArchReg out_reg, size_t array_len,
             int pairs);

/**
 * Computed-goto dispatch over num_cases equally sized cases (each
 * case_len instructions, padded), selected by data. Ends traces at the
 * indirect jump; mispredicted case selection exercises trace-level
 * sequencing. reuse_bias is the probability the previous case repeats.
 */
void kSwitch(PatternContext &cx, ArchReg out_reg, int num_cases,
             int case_len, double reuse_bias = 0.0);

/**
 * A guarded call: "if (flag) call f". The guard is a forward branch that
 * is *not* FGCI-embeddable (its region contains a call) — the paper's
 * "other forward branches" class.
 */
void kGuardedCall(PatternContext &cx, double bias,
                  ProgramBuilder::Label f);

/**
 * A forward if whose body exceeds the trace length: an embeddable-shaped
 * region that does not fit (the paper's FGCI "> 32" class).
 */
void kLongIf(PatternContext &cx, ArchReg out_reg, double bias,
             int body_len);

/**
 * A counted loop with a data-dependent early break: the break is a
 * forward branch whose region spans a backward branch, so it is not
 * embeddable ("other forward"); the loop branch itself is backward and
 * fairly predictable.
 */
void kLoopWithBreak(PatternContext &cx, ArchReg out_reg, int trips,
                    double break_bias, int body_len);

/**
 * Build a leaf function (returns via RET). body_len ALU ops plus an
 * optional embedded hammock. Returns the entry label; emit before the
 * main code path or jump over it.
 */
ProgramBuilder::Label buildLeafFunc(PatternContext &cx, int body_len,
                                    double hammock_bias);

/**
 * Build a two-level function: the outer saves RA to a stack slot, calls
 * the given leaf, restores and returns. Exercises nested returns (RET
 * heuristic accuracy).
 */
ProgramBuilder::Label buildNestedFunc(PatternContext &cx,
                                      ProgramBuilder::Label leaf,
                                      int body_len);

/** Emit "call f". */
void kCall(PatternContext &cx, ProgramBuilder::Label f);

} // namespace tproc

#endif // TPROC_WORKLOADS_PATTERNS_HH
