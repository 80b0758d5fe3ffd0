/**
 * @file
 * Small statistics helpers of the benchmark: medians, quantiles, the
 * reporting percentile rule, the per-point stats digest and the
 * metric-name grammar.
 */

#ifndef PERFBENCH_SUMMARY_HH
#define PERFBENCH_SUMMARY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/processor.hh"

namespace perfbench
{

/** Median of v (mean of the middle two for even sizes); 0 if empty. */
double median(std::vector<double> v);

/** The q-quantile (0..1) with linear interpolation between order
 *  statistics; 0 if empty. */
double quantile(std::vector<double> v, double q);

/**
 * The reporting rule for timings: next to the median, report the
 * highest percentile of {75, 90, 95, 99, 99.9} that still has at least
 * ten of the n samples beyond it. Returns 0 when none qualifies (fewer
 * than 40 samples), in which case only the median is reported.
 */
double reportPercentile(size_t n);

/** One line "median X, pP Y (n=N)" per the rule above. */
std::string describeTiming(const std::vector<double> &samples,
                           const std::string &unit);

/** FNV-1a digest over every ProcessorStats counter (name and value, in
 *  harness::statsToDict order). Equal digests = identical stats. */
uint64_t statsDigest(const tproc::ProcessorStats &s);

/** Digest as 16 lower-case hex digits. */
std::string hexDigest(uint64_t d);

/** Metric names: a letter or digit, then at most 63 more of letters,
 *  digits, '_', '.' and '-'. */
bool validMetricName(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_SUMMARY_HH
