/**
 * @file
 * The tproc-metrics-v1 telemetry document: per-point interval series
 * plus process-wide phase timings, emitted by tproc-sweep's
 * --metrics-json flag.
 *
 * docs/metrics.md is the normative schema reference; this header and
 * that document must change together. The design rule splits identity
 * from timing: everything under "points" is deterministic (derived
 * from simulation counters, reproducible run to run), everything under
 * "phases" is wall-clock and host-dependent.
 * Nothing in this module feeds back into simulation state, so emitting
 * a metrics document never perturbs any statistic.
 */

#ifndef TPROC_HARNESS_METRICS_HH
#define TPROC_HARNESS_METRICS_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/hires_timer.hh"
#include "common/stats.hh"
#include "harness/sweep.hh"

namespace tproc::harness
{

/** The schema identifier stamped into every metrics document. */
inline constexpr const char *metricsSchemaV1 = "tproc-metrics-v1";

/**
 * Assemble a tproc-metrics-v1 document from sweep results and a phase
 * snapshot. Results whose series is disabled (points run without
 * sampling, or failed points) are skipped; points are ordered by grid
 * index so the "points" array is byte-stable for a given grid.
 *
 * @param interval the sampling interval the run was configured with
 * @param results  sweep results, possibly carrying sampled series
 * @param phases   a PhaseTimers snapshot (or diff) to attribute
 */
JsonValue buildMetricsDoc(uint64_t interval,
                          const std::vector<SweepResult> &results,
                          const std::vector<PhaseStat> &phases);

/**
 * Validate the invariants every tproc-metrics-v1 document satisfies
 * (schema tag, interval/series consistency, channel names, row
 * widths). Returns an empty string when valid, else a description of
 * the first violation. test_metrics runs this against emitted
 * documents; CI's smoke job checks the shipped CLI's document with
 * its own Python check.
 */
std::string checkMetricsDoc(const JsonValue &doc);

/** Write `doc` to `path` as pretty-printed JSON. Throws
 *  std::runtime_error if the file cannot be written. */
void writeMetricsFile(const std::string &path, const JsonValue &doc);

} // namespace tproc::harness

#endif // TPROC_HARNESS_METRICS_HH
