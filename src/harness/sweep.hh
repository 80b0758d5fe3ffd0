/**
 * @file
 * Parallel sweep engine: fan (workload x configuration) simulation
 * points across worker threads.
 *
 * Each SweepPoint is an isolated, retryable unit of work in the
 * microreboot spirit: it constructs its own workload from an explicit
 * (name, seed, scale) triple and its own ProcessorConfig, so results are
 * bit-identical regardless of thread count or scheduling order, and a
 * point that panics is reported as a failed result instead of taking the
 * whole batch down.
 */

#ifndef TPROC_HARNESS_SWEEP_HH
#define TPROC_HARNESS_SWEEP_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "core/processor.hh"

namespace tproc::harness
{

/** One simulation point: which program, on which machine, how long. */
struct SweepPoint
{
    /** Named workload (see makeWorkload). */
    std::string workload;

    /** Named model (ProcessorConfig::forModel); ignored if useConfig. */
    std::string model = "base";

    /** Explicit configuration, used when useConfig is set. */
    ProcessorConfig config;
    bool useConfig = false;

    /** Deterministic seed for the workload's generated data. */
    uint64_t seed = 1;

    /** Workload iteration-count scale factor. */
    double scale = 1.0;

    /** Retired-instruction limit. */
    uint64_t maxInsts = UINT64_MAX;

    /** Golden-model retirement verification (named models only; an
     *  explicit config carries its own verifyRetirement flag). */
    bool verify = true;

    /**
     * Windowed-telemetry sampling interval in cycles
     * (ProcessorConfig::metricsInterval; named models only — an
     * explicit config carries its own). Like traceDir below, this is an
     * execution detail, not part of the point's identity: any value
     * leaves stats bit-identical (test_metrics- and CI-enforced) and
     * it is never serialized into journals or artifacts. The sampled
     * series rides back on SweepResult::series and only leaves the
     * process through --metrics-json (docs/metrics.md).
     */
    uint64_t metricsInterval = 0;

    /**
     * Capture-once/replay-many: when set, the point runs off a
     * recorded trace in this directory (see replay::TraceStore) — the
     * first point to touch a (workload, seed, scale, maxInsts)
     * identity records it, every other point replays the file instead
     * of regenerating the workload and re-running the architectural
     * execution. Stats are bit-identical to a live run by contract
     * (gtest- and CI-enforced). Empty = live emulation.
     */
    std::string traceDir;

    /** Display label; label() falls back to "workload/model". */
    std::string labelOverride;

    /**
     * Position in the full (unsharded) point grid. crossPoints assigns
     * it; shardPoints preserves it, so a point carries the same index,
     * seed, and therefore results no matter which shard ran it. Journal
     * records and merged artifacts are keyed and ordered by it.
     */
    uint64_t index = 0;

    std::string label() const;
};

/** Outcome of one point: stats on success, an error string on failure. */
struct SweepResult
{
    SweepPoint point;
    ProcessorStats stats;
    bool ok = false;
    std::string error;
    double wallSeconds = 0.0;

    /** Simulation attempts consumed producing this result (>= 1 once
     *  run; retries bump it). */
    unsigned attempts = 0;

    /**
     * Windowed telemetry sampled during the run (empty/disabled unless
     * the point asked for it). In-memory transport only: deliberately
     * NOT part of the result serializations (writeResultObject,
     * writeResultJsonLine, resultFromJson — the "add to all three"
     * rule does not apply), so journals, shard artifacts, and merged
     * artifacts stay byte-identical with metrics on or off. Metrics
     * leave the process exclusively via the --metrics-json document.
     */
    IntervalSeries series;
};

/** Flatten every ProcessorStats counter into the mergeable dict. */
StatDict statsToDict(const ProcessorStats &s);

/** Inverse of statsToDict: rebuild the counters from a flat dict. */
ProcessorStats statsFromDict(const StatDict &d);

/** Merge (sum) the stats of all successful results into one dict. */
StatDict mergeResults(const std::vector<SweepResult> &results);

/**
 * One pretty-printed per-point JSON object, indented by indent spaces.
 * The deterministic fields come first and are byte-stable across runs;
 * wall_seconds and attempts are timing / scheduling facts, left out
 * when deterministicOnly is set (canonical artifacts).
 */
void writeResultObject(std::ostream &os, const SweepResult &r, int indent,
                       bool deterministicOnly);

/** Serialize results as a JSON array (one object per point). */
void writeResultsJson(std::ostream &os,
                      const std::vector<SweepResult> &results);

/**
 * Parse a results array previously written by writeResultsJson (a shard
 * artifact) or the "points" array of a merged artifact back into
 * results. Stats survive the round trip bit for bit; throws
 * std::runtime_error on malformed input.
 */
std::vector<SweepResult> readResultsJson(std::istream &is);

/** Rebuild one result from its parsed JSON object (a writeResultsJson
 *  array element or a journal line). Throws std::runtime_error. */
SweepResult resultFromJson(const JsonValue &v);

/** Serialize one result as a single-line JSON object — the journal
 *  record format; resultFromJson is its inverse. */
void writeResultJsonLine(std::ostream &os, const SweepResult &r);

/**
 * Serialize the canonical merged artifact: results sorted by grid
 * index, only deterministic fields (no wall-clock), plus the summed
 * StatDict and point counts. A serial unsharded run and any
 * shard-then-merge of the same grid produce bit-identical bytes.
 */
void writeMergedJson(std::ostream &os, std::vector<SweepResult> results);

/**
 * Cartesian helper: one point per (workload x model), sharing seed,
 * instruction limit, and verify flag; indices run 0..n-1 in grid order.
 */
std::vector<SweepPoint>
crossPoints(const std::vector<std::string> &workloads,
            const std::vector<std::string> &models, uint64_t seed,
            uint64_t max_insts, bool verify);

/**
 * The stable 1/count slice of a point grid owned by shard (0-based):
 * points whose position in the list satisfies pos % count == shard.
 * Striding balances neighbouring (same-workload) points across shards.
 * Points keep their index and seed, so a sharded run computes exactly
 * what the unsharded run would have at those indices.
 */
std::vector<SweepPoint> shardPoints(const std::vector<SweepPoint> &points,
                                    unsigned shard, unsigned count);

/**
 * Thread-pooled executor for a batch of SweepPoints. Results come back
 * in input order; with identical points and seeds, the result of every
 * point is bit-identical no matter how many workers ran the batch.
 */
class SweepEngine
{
  public:
    struct Options
    {
        /** Worker threads; 0 means std::thread::hardware_concurrency. */
        unsigned threads = 0;

        /** Print per-point completion lines with ETA to progressStream. */
        bool progress = false;

        /** Destination for progress lines; null means std::cerr. */
        std::ostream *progressStream = nullptr;

        /** Extra attempts for a failed point before its failure stands
         *  (microreboot-style: each retry is a clean re-run). */
        unsigned retries = 0;

        /** Called once per finished point (after retries), from worker
         *  threads but never concurrently. Journal hook. */
        std::function<void(const SweepResult &)> onResult;
    };

    SweepEngine() = default;
    explicit SweepEngine(Options opts_) : opts(opts_) {}

    /** Run all points to completion; never throws for per-point faults. */
    std::vector<SweepResult> run(const std::vector<SweepPoint> &points);

    /** Run one point in isolation (panic/fatal become result.error). */
    static SweepResult runPoint(const SweepPoint &p);

    /** The worker count run() would use for a batch of n points. */
    unsigned effectiveThreads(size_t n) const;

  private:
    Options opts;
};

} // namespace tproc::harness

#endif // TPROC_HARNESS_SWEEP_HH
