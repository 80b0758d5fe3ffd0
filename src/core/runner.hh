/**
 * @file
 * Convenience drivers shared by examples, benches, and tests: run a
 * program on a named model, and print human-readable summaries.
 */

#ifndef TPROC_CORE_RUNNER_HH
#define TPROC_CORE_RUNNER_HH

#include <iosfwd>
#include <string>

#include "core/processor.hh"

namespace tproc
{

/**
 * Simulate prog on the named model (see ProcessorConfig::forModel).
 *
 * @param verify enable golden-model retirement verification
 * @param max_insts stop after this many retired instructions
 */
ProcessorStats runModel(const Program &prog, std::string_view model,
                        uint64_t max_insts = UINT64_MAX,
                        bool verify = true);

/**
 * Telemetry carried out of one runConfig call when the configuration
 * enables windowed sampling (cfg.metricsInterval > 0): the interval
 * series plus the wall time of the cycle loop. Pure observation —
 * requesting it never changes ProcessorStats (docs/metrics.md).
 */
struct RunMetrics
{
    IntervalSeries series;
    double cycleSeconds = 0.0;   //!< wall time of the cycle loop
};

/**
 * As runModel but with an explicit configuration. An optional golden
 * ArchSource (e.g. a replay::ReplaySource over a recorded trace)
 * replaces the live Emulator on the retirement-verification port.
 *
 * The run is timed under the "simulate" phase of PhaseTimers::global();
 * when cfg.metricsInterval > 0 the cycle-loop wall time is folded into
 * the "cycle_loop" phase and, if metrics_out is non-null, the sampled
 * series is copied there.
 */
ProcessorStats runConfig(const Program &prog, const ProcessorConfig &cfg,
                         uint64_t max_insts = UINT64_MAX,
                         std::unique_ptr<ArchSource> golden = nullptr,
                         RunMetrics *metrics_out = nullptr);

/** Print a one-stop summary of a run. */
void printStats(std::ostream &os, const std::string &title,
                const ProcessorStats &s);

/** One-line summary ("ipc=… cycles=… insts=… misp/1k=…") for progress
 *  lines and sweep reports. */
std::string statsSummaryLine(const ProcessorStats &s);

} // namespace tproc

#endif // TPROC_CORE_RUNNER_HH
