/**
 * @file
 * Parallel sweep engine: fan (workload x configuration) simulation
 * points across worker threads.
 *
 * Each SweepPoint is an isolated unit of work: it constructs its own
 * workload from an explicit (name, seed, scale) triple and its own
 * ProcessorConfig, so results are bit-identical regardless of thread
 * count or scheduling order, and a point that panics is reported as a
 * failed result instead of taking the whole batch down. The simulation
 * is deterministic, so a failed point is not re-run: it would fail the
 * same way again.
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
     * it is never serialized into result documents. The sampled
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
     * Position in the point grid. crossPoints and paperPoints assign
     * it; result documents are ordered by it and print it, and the
     * explorer keys its shapes and the --point=I repro path on it.
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

    /** Wall time of the point: a timing fact for progress lines and
     *  speed probes, never serialized into a result document. */
    double wallSeconds = 0.0;

    /**
     * Windowed telemetry sampled during the run (empty/disabled unless
     * the point asked for it). In-memory transport only: deliberately
     * NOT part of the result serialization (writeResultObject), so
     * result documents stay byte-identical with metrics on or off.
     * Metrics leave the process exclusively via the --metrics-json
     * document.
     */
    IntervalSeries series;
};

/** Flatten every ProcessorStats counter into the mergeable dict. */
StatDict statsToDict(const ProcessorStats &s);

/** Merge (sum) the stats of all successful results into one dict. */
StatDict mergeResults(const std::vector<SweepResult> &results);

/**
 * One pretty-printed per-point JSON object, indented by indent spaces:
 * the point's identity, its outcome and its stats. Every field is
 * deterministic, so the bytes are stable across runs and schedulers.
 */
void writeResultObject(std::ostream &os, const SweepResult &r, int indent);

/**
 * Serialize the canonical result document, the one format a sweep's
 * results take (tproc-sweep --json): results sorted by grid index plus
 * the summed StatDict and point counts. A serial run and a parallel
 * run of the same grid produce bit-identical bytes.
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

        /** Called once per finished point, from worker threads but
         *  never concurrently. */
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
