/**
 * @file
 * The paper's whole evaluation as one experiment: every table and
 * figure of Rotenberg & Smith (Tables 1-5, Figures 9-10) plus the
 * ablation sweeps, computed from one deduplicated point set that runs
 * in a single SweepEngine batch, and the functional Table 2 and
 * Table 5 studies alongside.
 *
 * The point set is the union of
 *   - the eight named models x the eight analogs at insts, and
 *   - the ablation grid (FG+MLB-RET against base on compress and li,
 *     one knob changed at a time) at insts / 2.
 * A point is keyed on (workload, model, the knob that differs from the
 * model's default, instruction count), so an ablation cell at the
 * default machine is the model's plain point and runs once.
 *
 * One PaperResult feeds two outputs: the versioned tproc-paper-v1 JSON
 * document (deterministic fields only, byte-identical for any thread
 * count) and the rendered text tables. The workloads are synthetic
 * SPEC95 analogs (docs/workloads.md), so the shape of each result, not
 * its absolute value, is what compares with the paper.
 */

#ifndef TPROC_HARNESS_PAPER_HH
#define TPROC_HARNESS_PAPER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "study/branch_study.hh"

namespace tproc::harness
{

/** One analog's Table 2 row: its code size and natural length. */
struct Table2Row
{
    std::string benchmark;
    uint64_t staticInsts = 0;
    /** Instructions emulated, up to the workload's safety cap. */
    uint64_t dynamicInsts = 0;
    /** Whether the program halted before the cap. */
    bool halted = false;
    /** The Table-5 character the analog targets. */
    std::string profile;
};

/** One analog's Table 5 branch study at the paper's instruction
 *  count. */
struct Table5Row
{
    std::string benchmark;
    BranchStudy study;
};

/** Everything the paper's tables and figures are rendered from. */
struct PaperResult
{
    uint64_t insts = 0;
    uint64_t seed = 1;
    /** One result per paperPoints() entry, in that order. */
    std::vector<SweepResult> points;
    std::vector<Table2Row> table2;
    std::vector<Table5Row> table5;
};

/** The union point set; indices run 0..n-1 in order. */
std::vector<SweepPoint> paperPoints(uint64_t insts, uint64_t seed);

/** Run paperPoints() in one engine batch, with the functional Table 2
 *  and Table 5 studies on one extra thread alongside it. Per-point
 *  faults come back as failed points. */
PaperResult runPaper(uint64_t insts, uint64_t seed,
                     const SweepEngine::Options &opts);

/** Write the tproc-paper-v1 document (no wall-clock fields). */
void writePaperJson(std::ostream &os, const PaperResult &r);

/**
 * Render Table 1, Table 2, Table 3, Table 4, Table 5, Figure 9,
 * Figure 10 and the ablations, in that order, each next to the paper's
 * reference numbers. Every point must have succeeded.
 */
void renderPaper(std::ostream &os, const PaperResult &r);

} // namespace tproc::harness

#endif // TPROC_HARNESS_PAPER_HH
