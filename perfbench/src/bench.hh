/**
 * @file
 * The simulator benchmark: three workloads, an untraced mode for the
 * end-to-end metrics and a traced mode for the per-layer ones. Every
 * call into the simulator goes through its public API (workload
 * builder, runConfig, Processor, TraceStore, ReplaySource,
 * SweepEngine); README.md is the normative description.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

struct Options
{
    std::string workload;       //!< analog-live, ci-stress, fig10-replay
    uint64_t seed = 1;          //!< workload data seed
    double seconds = 10.0;      //!< length of the timed phase
    bool trace = false;         //!< traced run (per-layer metrics)
    bool setupOnly = false;     //!< stop once set-up is done
    std::string workDir;        //!< scratch directory (fresh traces)
    std::string traceOut;       //!< Chrome trace file of a traced run
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &benchWorkloads();

/** Every metric the benchmark can print: name, unit, and whether it
 *  belongs to the traced (per-layer) run. */
struct MetricDef
{
    const char *name;
    const char *unit;
    bool traced;
};
const std::vector<MetricDef> &metricDefs();

struct Report
{
    bool correct = false;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Metric name -> value, in metricDefs() order. */
    std::vector<std::pair<std::string, double>> metrics;
    /** steady_clock nanoseconds at the end of set-up. */
    int64_t readyNs = 0;
    /** Host speed measured right after set-up (see host_probe.hh). */
    double setupSpeed = 1.0;
};

/** Run one benchmark invocation; human-readable progress goes to log.
 *  Throws std::runtime_error on bad options. */
Report runBenchmark(const Options &opt, std::ostream &log);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
