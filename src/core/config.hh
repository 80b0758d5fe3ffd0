/**
 * @file
 * Trace processor configuration (Table 1 defaults) and the control
 * independence models evaluated in Section 6.
 */

#ifndef TPROC_CORE_CONFIG_HH
#define TPROC_CORE_CONFIG_HH

#include <cstddef>
#include <string>
#include <string_view>

#include "common/logging.hh"

#include "cache/dcache.hh"
#include "cache/icache.hh"
#include "tcache/trace_cache.hh"
#include "tpred/trace_predictor.hh"
#include "trace/bit.hh"
#include "trace/selection.hh"

namespace tproc
{

/** CGCI recovery heuristic (Section 4.2). */
enum class CgciHeuristic : uint8_t
{
    NONE,       //!< coarse-grain control independence disabled
    RET,        //!< nearest trace ending in a return
    MLB_RET     //!< mispredicted-loop-branch first, then RET
};

const char *cgciHeuristicName(CgciHeuristic h);

/**
 * Thrown by ProcessorConfig::validate() on a degenerate machine shape.
 * Carries the offending knob's field name as a structured member so
 * harnesses (and the config-space explorer's sampler tests) can
 * attribute a rejection without parsing the message — the same
 * convention as UnknownWorkloadError and WatchdogError. Thrown
 * directly (not via panic), so it propagates whether or not a
 * ScopedErrorCapture is active: a bad shape is always a reportable
 * error, never an abort.
 */
struct ConfigError : SimError
{
    ConfigError(std::string knob_, const std::string &msg)
        : SimError(msg), knob(std::move(knob_))
    {}

    /** Field name of the rejected knob, e.g. "numPEs" or
     *  "tpred.pathEntries". */
    std::string knob;
};

/** Complete processor configuration. Defaults reproduce Table 1. */
struct ProcessorConfig
{
    /** Trace selection (default max length 32; ntb / fg per model). */
    SelectionParams selection;

    /** @name Control independence model. */
    /// @{
    bool fgci = false;                          //!< exploit FGCI
    CgciHeuristic cgci = CgciHeuristic::NONE;   //!< exploit CGCI
    /// @}

    /** @name Machine structure (Table 1). */
    /// @{
    int numPEs = 16;
    int issuePerPe = 4;
    int globalBuses = 8;        //!< global result buses
    int maxBusesPerPe = 4;
    int cacheBuses = 8;
    int maxCacheBusesPerPe = 4;
    int frontendLatency = 2;    //!< fetch + dispatch
    int loadReissuePenalty = 1; //!< snoop latency on selective reissue
    /// @}

    /** @name Memory / predictor structures. */
    /// @{
    ICache::Params icache;
    DCache::Params dcache;
    TraceCache::Params tcache;
    TracePredictor::Params tpred;
    Bit::Params bit;
    size_t btbEntries = 16 * 1024;
    size_t physRegs = 64 * 1024;
    /// @}

    /** Give up on CGCI re-convergence (degenerating to a full squash)
     *  after this many cycles; the paper notes re-convergence is not
     *  guaranteed, so recovery hardware must bound the wait. */
    uint64_t cgciReconvergeTimeout = 1024;

    /** @name Simulation controls. */
    /// @{
    uint64_t watchdogCycles = 200000;   //!< panic if retirement stalls
    bool verifyRetirement = true;       //!< golden-model check at retire

    /** Workload/seed identity stamped onto watchdog errors so harness
     *  fault isolation can attribute a stalled point without parsing
     *  (observability only — never affects the simulation and is not
     *  serialized anywhere). Processor::setIdentity overrides it. */
    std::string identity;

    /**
     * Windowed telemetry: sample the interval metrics channels (see
     * docs/metrics.md) every this many cycles into a bounded
     * IntervalSeries ring buffer. 0 (default) disables sampling — the
     * cycle loop then pays exactly one predictable branch — and any
     * value leaves the final statistics bit-identical by construction:
     * the recorder only *reads* counters (tests/test_metrics.cc and
     * the CI golden job enforce this).
     */
    uint64_t metricsInterval = 0;

    /** Retained-interval bound for the metrics ring buffer; once full,
     *  the oldest interval is overwritten and counted as dropped. */
    size_t metricsCapacity = 512;
    /// @}

    /**
     * Named experiment models:
     *   "base", "base(ntb)", "base(fg)", "base(fg,ntb)" (Section 6.1),
     *   "RET", "MLB-RET", "FG", "FG+MLB-RET" (Section 6.2).
     */
    static ProcessorConfig forModel(std::string_view model);

    /**
     * Reject degenerate shapes up front with a ConfigError naming the
     * bad knob, instead of letting them fail deep inside a structure
     * constructor or — worse — silently misbehave (a zero-entry
     * TracePredictor used to pass its power-of-two check and index an
     * empty table). Checks every structural knob: positive PE/bus/
     * issue counts, nonzero power-of-two set counts for every cache
     * and predictor table (replicating the constructors' set-count
     * formulas), enough physical registers for the worst-case in-
     * flight window, and live watchdog/timeout bounds.
     *
     * The Processor constructor calls this, so no simulation starts
     * on an invalid shape; the explorer's sampler is tested to stay
     * inside this envelope.
     */
    void validate() const;
};

} // namespace tproc

#endif // TPROC_CORE_CONFIG_HH
