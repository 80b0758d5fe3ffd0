/**
 * @file
 * Golden-statistics regression layer: canonical per-point StatDict
 * snapshots on disk, plus the comparison used by `tproc-sweep
 * --golden=DIR` and the CI golden job to fail on any drift. A snapshot
 * is the full flattened counter dict of one sweep point, so any
 * behavioural change in the simulator — timing, recovery, caches —
 * shows up as a named-counter diff.
 */

#ifndef TPROC_HARNESS_GOLDEN_HH
#define TPROC_HARNESS_GOLDEN_HH

#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/sweep.hh"

namespace tproc::harness
{

/**
 * Snapshot file name for a point: "<workload>__<model>.json" with
 * filesystem-hostile characters mapped to '_'. Points carrying an
 * explicit ProcessorConfig have no model name; they use the point
 * label instead, so grids mixing several configs of one workload MUST
 * give each point a distinct labelOverride or their snapshots collide
 * on one file.
 */
std::string goldenFileName(const SweepPoint &p);

/** One divergent counter between a snapshot and a fresh run. */
struct GoldenDrift
{
    std::string key;
    double expected = 0.0;
    double actual = 0.0;
    bool inExpected = false;
    bool inActual = false;
};

/** All counters that differ (missing keys on either side included);
 *  empty means bit-identical stats. */
std::vector<GoldenDrift> diffStatDicts(const StatDict &expected,
                                       const StatDict &actual);

/** One drift as "key: golden X, got Y" (<absent> for a missing
 *  side). */
std::string describeDrift(const GoldenDrift &d);

/** Write one snapshot (a bare StatDict JSON object + newline). Throws
 *  std::runtime_error on I/O failure. */
void writeGoldenFile(const std::string &path, const StatDict &stats);

/** Read a snapshot back. Throws std::runtime_error on I/O or parse
 *  failure. */
StatDict readGoldenFile(const std::string &path);

} // namespace tproc::harness

#endif // TPROC_HARNESS_GOLDEN_HH
