/**
 * @file
 * Declarative synthetic-workload generator.
 *
 * The eight hand-written SPEC95 analogs (workloads.cc) each pin one
 * Table-5 branch profile by composing pattern kernels with hand-picked
 * parameters. A WorkloadPattern makes those parameters declarative —
 * the knobs the analogs vary (FGCI-region share and size, forward-
 * branch share, loop count and predictability, misprediction target,
 * memory-alias density) become sampled ranges — so arbitrarily many
 * programs can be generated from a pattern mix and a seed while staying
 * fully deterministic.
 *
 * A generated workload is named "gen:<pattern-mix>:<index>", e.g.
 * "gen:fgci*3+loops:17". The complete identity of the program is
 * (name, seed, scale): the mix string and index live in the name, and
 * the same seed the analogs take controls knob sampling and data.
 * Because makeWorkload() accepts these names, generated programs flow
 * through the sweep grid, the trace store, replay, and
 * capture-on-failure exactly like the fixed menu ("open unlimited
 * scenarios while staying deterministic" — ROADMAP).
 *
 * Mix grammar (no commas — names must survive comma-separated CLI
 * lists — and no slashes — they become file names):
 *
 *   mix  := term ('+' term)*
 *   term := pattern | pattern '*' weight      (integer weight >= 1)
 *
 * "all" is shorthand for every builtin pattern at weight 1. Each
 * generated index draws one pattern from the mix by weight, then
 * samples that pattern's knob ranges.
 */

#ifndef TPROC_WORKLOADS_GENERATOR_HH
#define TPROC_WORKLOADS_GENERATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/workloads.hh"

namespace tproc
{

/** An inclusive integer knob range; sampled uniformly per program. */
struct KnobRange
{
    int lo = 0;
    int hi = 0;
};

/** An inclusive real-valued knob range; sampled uniformly. */
struct KnobRangeF
{
    double lo = 0.0;
    double hi = 0.0;
};

/**
 * One declarative branch-profile family. Every field is a range the
 * generator samples once per generated program, so a single pattern
 * already yields unbounded distinct-but-related programs; a mix of
 * patterns yields a weighted blend of families.
 */
struct WorkloadPattern
{
    std::string name;
    std::string note;   //!< the profile character (mirrors Table 5)

    /** @name FGCI-embeddable regions (hammocks). */
    /// @{
    KnobRange fgciRegions{4, 6};    //!< hammocks per outer iteration
    KnobRange fgciSize{3, 6};       //!< ALU ops per hammock arm
    KnobRange nestedRegions{0, 1};  //!< nested hammocks (multi-branch)
    /// @}

    /** Per-branch misprediction-probability target. Branch outcomes
     *  come from biased random flags, so a bimodal predictor converges
     *  to the majority direction and mispredicts at roughly the
     *  minority rate: bias = 1 - sample(mispTarget). */
    KnobRangeF mispTarget{0.02, 0.10};

    /** @name Other (non-embeddable) forward branches. */
    /// @{
    KnobRange forwardBranches{1, 3};    //!< guarded calls / long ifs
    KnobRange longIfBody{34, 44};       //!< body beyond trace length
    /// @}

    /** @name Backward (loop) branches. */
    /// @{
    KnobRange loops{0, 2};          //!< inner loops per iteration
    KnobRange loopTrips{16, 64};    //!< max (data-dep.) or fixed trips
    /** P(a loop is fixed-trip): 1.0 = perfectly predictable exits,
     *  0.0 = every exit data-dependent (li-style CGCI territory). */
    KnobRangeF loopPredictability{0.5, 1.0};
    /// @}

    /** @name Memory behaviour. */
    /// @{
    KnobRange memKernels{1, 2};     //!< kMemOps instances
    KnobRange memPairs{1, 2};       //!< load/store pairs per instance
    /** log2 of the backing array; smaller arrays revisit addresses
     *  sooner, so store-to-load aliasing through the ARB is denser. */
    KnobRange aliasLogLen{10, 13};
    /// @}

    /** @name Indirect dispatch (kSwitch). lo==hi==0 disables. */
    /// @{
    KnobRange switchCasesLog{0, 0}; //!< log2(cases), 0 = no switch
    KnobRangeF switchReuse{0.5, 0.9};
    /// @}

    KnobRange computeLen{6, 12};    //!< straight-line ALU filler
    KnobRange callDepth{1, 2};      //!< 1 = leaf only, 2 = nested fn

    /** Outer-loop iterations at scale 1 (analogs use 2200..16000;
     *  makeWorkload's scale bound assumes at most 16000). */
    int64_t baseIters = 4000;
};

/** The builtin pattern library (one per Table-5 profile family). */
const std::vector<WorkloadPattern> &builtinPatterns();

/** Builtin pattern names, mix-term order. */
std::vector<std::string> generatorPatternNames();

/** One parsed mix term. */
struct PatternShare
{
    const WorkloadPattern *pattern;
    uint64_t weight;
};

/**
 * Parse a pattern-mix spec against the builtin library. The weights
 * sum to at most 2^64 - 1, the bound of the generator's weighted draw.
 * @throw UnknownWorkloadError on an unknown pattern name, a malformed
 * spec or weights that sum past that (the message lists the valid
 * pattern names).
 */
std::vector<PatternShare> parsePatternMix(const std::string &mix);

/** True if name has the generated-workload form ("gen:..."). */
bool isGeneratedName(const std::string &name);

/** Compose the canonical generated-workload name for (mix, index). */
std::string generatedName(const std::string &mix, uint64_t index);

/**
 * Check that name is a well-formed "gen:<mix>:<index>" spec without
 * building the program (CLI front-ends validate workload lists up
 * front so a typo is a usage error, not a mid-sweep failure).
 * @throw UnknownWorkloadError on a malformed name or unknown pattern.
 */
void validateGeneratedName(const std::string &name);

/**
 * Build the generated workload a "gen:<mix>:<index>" name denotes.
 * Deterministic: the same (name, seed, scale) triple yields a
 * byte-identical Program in any process.
 * @throw UnknownWorkloadError on a malformed name or unknown pattern.
 */
Workload makeGeneratedWorkload(const std::string &name, uint64_t seed,
                               double scale);

} // namespace tproc

#endif // TPROC_WORKLOADS_GENERATOR_HH
