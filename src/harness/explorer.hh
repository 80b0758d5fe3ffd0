/**
 * @file
 * Config-space explorer: deterministic sampling of machine shapes run
 * through the standing differential oracles, with cliff detection.
 *
 * The paper's core results are sensitivity curves over machine shape
 * (PE count and width, result buses, trace-cache and predictor
 * geometry), and the interesting simulator bugs live exactly on those
 * config cliffs — the PR-8 starved-bus deadlock was one. The explorer
 * turns the PR-4 "20 random configs" property into a first-class
 * campaign: a ShapeSpace declares knob ranges the way a
 * WorkloadPattern declares workload knobs, sampleShape() draws shape
 * index i deterministically from (space, seed, i), and runExplore()
 * pairs every shape with a generated workload and runs it two ways
 * through the SweepEngine — live (golden-verified, telemetry on) and
 * replayed from a captured trace. The two must agree bit for bit.
 *
 * Any panic, watchdog bark, or oracle divergence is captured: a
 * verify-clean v4 `.tpt` lands in the failure directory plus a
 * one-line repro command (`--point=I` re-runs exactly that index
 * because sampling is index-keyed) — the microreboot idea from
 * PAPERS.md, every failure leaves a cheap, precise recovery point.
 * The replay oracle's own trace store is a fresh temporary directory,
 * removed when the campaign ends. Surviving points feed a cliff
 * detector that reads the per-point StatDict and the tproc-metrics-v1
 * interval series (ipc, window_occupancy, bus_backlog) to rank the
 * frontier: IPC cliffs, zero-retirement (watchdog-adjacent) intervals,
 * saturated buses. The whole campaign serializes as a deterministic
 * `explore-report-v1` JSON document — bit-identical across runs and
 * scheduler widths (docs/explorer.md).
 *
 * Explorer, engine, and store stay separable layers: the explorer
 * only builds SweepPoints and reads SweepResults; the engine knows
 * nothing about shapes; capture goes through the replay::TraceStore
 * naming convention so `tproc-sweep --trace-dir=<failure-dir>` replays
 * a captured failure directly.
 */

#ifndef TPROC_HARNESS_EXPLORER_HH
#define TPROC_HARNESS_EXPLORER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "core/config.hh"
#include "workloads/generator.hh"

namespace tproc::harness
{

/**
 * Declarative machine-shape knob ranges (the Table-5 axes), sampled
 * once per shape index. Integer knobs sample uniformly inclusive;
 * *Log2 knobs sample an exponent, so the derived structure sizes stay
 * powers of two and every sampled shape passes
 * ProcessorConfig::validate() by construction (test-enforced).
 * Defaults bracket the paper's Table 1 machine on every axis.
 */
struct ShapeSpace
{
    /** @name Window geometry. */
    /// @{
    KnobRange numPEs{2, 32};
    KnobRange issuePerPe{1, 8};
    KnobRange maxTraceLen{4, 32};
    /// @}

    /** @name Interconnect (where the starved-bus bug lived). */
    /// @{
    KnobRange globalBuses{1, 16};
    KnobRange maxBusesPerPe{1, 8};
    KnobRange cacheBuses{1, 16};
    KnobRange maxCacheBusesPerPe{1, 8};
    /// @}

    /** @name Frontend timing. */
    /// @{
    KnobRange frontendLatency{1, 4};
    KnobRange loadReissuePenalty{0, 2};
    /// @}

    /** @name Cache geometry (log2 bytes / log2 ways). The lower size
     *  bounds keep every derived set count a nonzero power of two for
     *  any sampled associativity (validate()'s envelope). */
    /// @{
    KnobRange icacheSizeLog2{14, 17};   //!< 16KB..128KB
    KnobRange icacheAssocLog2{0, 3};    //!< direct-mapped..8-way
    KnobRange dcacheSizeLog2{14, 17};
    KnobRange dcacheAssocLog2{0, 3};
    KnobRange tcacheSizeLog2{14, 18};   //!< 16KB..256KB
    KnobRange tcacheAssocLog2{0, 3};
    /// @}

    /** @name Predictor geometry (log2 entries). */
    /// @{
    KnobRange tpredPathLog2{10, 16};
    KnobRange tpredSimpleLog2{10, 16};
    KnobRange bitEntriesLog2{10, 14};
    KnobRange bitAssocLog2{0, 2};
    KnobRange btbEntriesLog2{10, 14};
    KnobRange physRegsLog2{12, 16};     //!< 4K floor covers any window
    /// @}
};

/** One sampled machine shape: the config plus its report identity. */
struct SampledShape
{
    ProcessorConfig config;
    /** The control-independence model family the shape was grown from
     *  (one of the eight forModel names). */
    std::string model;
    /** Every sampled knob value, by config field name — the report's
     *  per-point `knobs` object. */
    StatDict knobs;
};

/**
 * Draw shape `index` from the space. Deterministic: the same
 * (space, seed, index) yields an identical shape in any process, and
 * knobs are sampled in a fixed order (determinism is order-fragile —
 * same discipline as the workload generator). The result always
 * satisfies ProcessorConfig::validate().
 */
SampledShape sampleShape(const ShapeSpace &space, uint64_t seed,
                         uint64_t index);

struct ExploreOptions
{
    /** Knob ranges to sample from. */
    ShapeSpace space;

    /** Total shapes in the campaign grid. */
    uint64_t shapes = 500;

    /** Seed for shape sampling and workload data. */
    uint64_t seed = 1;

    /** Pattern-mix spec for the paired generated workloads; shape i
     *  runs workload "gen:<mix>:<i>" so the workload axis varies with
     *  the shape axis. */
    std::string mix = "all";

    /** Retired-instruction cap per oracle run (explore points are
     *  many, so the default is short). */
    uint64_t insts = 20000;

    /** SweepEngine worker threads (0 = hardware concurrency). The
     *  report is bit-identical for every value. */
    unsigned threads = 0;

    /** Run exactly one index (the --point=I repro path); -1 = all. */
    int64_t onlyPoint = -1;

    /** Where failing points are captured as .tpt files. Stays
     *  untouched (not even created) while every point passes. */
    std::string failureDir = "explore-failures";

    /** Per-point progress + failure/repro lines (null = silent). */
    std::ostream *log = nullptr;

    /** Test hook: report this index as a divergence even though its
     *  oracles agreed, proving capture-on-failure end to end (-1 =
     *  off). */
    int64_t injectDivergenceAt = -1;
};

/** Cliff-detector reading of one surviving point (docs/explorer.md
 *  defines each signal; all derive from deterministic counters). */
struct CliffSignals
{
    double ipc = 0.0;               //!< whole-run retired insts/cycle
    double minIntervalIpc = 0.0;    //!< worst sampled interval's ipc
    double ipcDip = 0.0;            //!< 1 - minIntervalIpc/ipc
    double busSaturation = 0.0;     //!< mean bus_backlog / globalBuses
    double peakOccupancy = 0.0;     //!< max window_occupancy / numPEs
    double utilization = 0.0;       //!< ipc / (numPEs * issuePerPe)
    double zeroIpcIntervals = 0.0;  //!< watchdog-adjacent intervals
    double score = 0.0;             //!< frontier ranking key
};

/** Outcome of one explored shape. */
struct ExplorePoint
{
    uint64_t index = 0;
    std::string workload;
    std::string model;          //!< shape's model family
    StatDict knobs;             //!< sampled shape knobs
    bool ok = false;
    /** Failure kind ("" when ok): "panic", "panic(replay)",
     *  "replay-divergence", or "injected". */
    std::string kind;
    std::string message;
    std::string tracePath;      //!< captured .tpt ("" unless failed)
    std::string repro;          //!< one-line tproc-explore command
    StatDict stats;             //!< live-oracle stats (when ok)
    CliffSignals cliff;         //!< zeroed unless ok
};

struct ExploreReport
{
    uint64_t shapes = 0;        //!< full campaign grid size
    uint64_t pointsRun = 0;     //!< points this invocation ran
    uint64_t failures = 0;      //!< oracle failures (incl. divergences)
    uint64_t divergences = 0;   //!< thread/replay divergences only
    /** Points in index order. */
    std::vector<ExplorePoint> points;
    /** Up to 16 point indices ranked most-interesting-first: failures,
     *  then descending cliff score, index as the deterministic
     *  tie-break. */
    std::vector<uint64_t> frontier;
};

/** Run the campaign. Throws UnknownWorkloadError on a bad mix (CLI
 *  front-ends surface it as usage + exit 2) and std::runtime_error
 *  when the replay store cannot be created (exit 126); per-point
 *  faults never throw — they come back as failed points with
 *  captures. */
ExploreReport runExplore(const ExploreOptions &opts);

/** Serialize the deterministic `explore-report-v1` document. Two runs
 *  with the same options produce byte-identical output regardless of
 *  thread counts (no wall-clock fields). */
void writeExploreReport(std::ostream &os, const ExploreReport &report,
                        const ExploreOptions &opts);

} // namespace tproc::harness

#endif // TPROC_HARNESS_EXPLORER_HH
