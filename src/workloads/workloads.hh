/**
 * @file
 * Synthetic SPEC95-integer-analog workloads.
 *
 * The paper evaluates on the SPEC95 integer benchmarks (Table 2). Those
 * binaries and inputs are unavailable here, so each workload below is a
 * generated program tuned to reproduce the corresponding benchmark's
 * branch profile from Table 5: the fraction of FGCI-embeddable branches
 * and their region sizes, the share of other forward branches, the share
 * and predictability of backward (loop) branches, and the overall
 * misprediction rate. docs/workloads.md describes the analogs, the
 * pattern kernels they are built from, and the generator that samples
 * the same kernels.
 */

#ifndef TPROC_WORKLOADS_WORKLOADS_HH
#define TPROC_WORKLOADS_WORKLOADS_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "program/builder.hh"
#include "program/program.hh"

namespace tproc
{

/**
 * Thrown by makeWorkload() (and the generator's pattern-mix parser) on
 * a name that matches nothing. The message lists the valid names, so
 * CLI front-ends can surface it as a usage error (exit 2) instead of
 * the process dying inside library code.
 */
struct UnknownWorkloadError : SimError
{
    using SimError::SimError;
};

struct Workload
{
    std::string name;
    Program program;
    /** Safety cap for simulations (the program halts naturally before
     *  this in normal runs). */
    uint64_t maxInsts = 0;
    /** The Table-5 character this workload targets. */
    std::string profileNote;
};

/** Names of the eight workloads (paper benchmark order). */
const std::vector<std::string> &workloadNames();

/**
 * Build one workload by name (seed controls its random data).
 *
 * Besides the eight analog names, accepts generated-workload names of
 * the form "gen:<pattern-mix>:<index>" (see workloads/generator.hh) —
 * the full workload identity lives in (name, seed, scale), so generated
 * programs flow through the trace store, replay, and capture unchanged.
 *
 * @throw UnknownWorkloadError on any other name.
 */
Workload makeWorkload(const std::string &name, uint64_t seed = 1,
                      double scale = 1.0);

/** @name Shared emitters for workload programs.
 * Every workload (hand-written analog or generated) is one outer loop:
 * prologue initializes the register conventions and the iteration
 * count, the kernels form the body, and the epilogue counts down,
 * branches back, folds the outputs and halts. */
/// @{
/** Data segment start shared by all workload emitters (word address). */
constexpr Addr workloadDataBase = 1 << 20;
/** Emit the outer-loop prologue; returns the loop-top label. */
ProgramBuilder::Label workloadPrologue(ProgramBuilder &b, int64_t iters);
/** Emit the outer-loop epilogue: countdown, backward branch, halt. */
void workloadEpilogue(ProgramBuilder &b, ProgramBuilder::Label top);
/// @}

/** Build all eight. @param scale multiplies iteration counts. */
std::vector<Workload> makeAllWorkloads(uint64_t seed = 1,
                                       double scale = 1.0);

} // namespace tproc

#endif // TPROC_WORKLOADS_WORKLOADS_HH
