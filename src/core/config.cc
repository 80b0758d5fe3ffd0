#include "core/config.hh"

#include <string>

#include "common/logging.hh"
#include "common/types.hh"

namespace tproc
{

namespace
{

bool
isPow2(size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

[[noreturn]] void
badKnob(const char *knob, const std::string &detail)
{
    throw ConfigError(knob, std::string("invalid ProcessorConfig: ") +
                                knob + " " + detail);
}

/** A count knob that must be >= 1. */
void
requirePositive(const char *knob, long long v)
{
    if (v < 1)
        badKnob(knob, "must be >= 1 (got " + std::to_string(v) + ")");
}

/** A table whose constructor derives `sets` and masks with sets-1:
 *  the derived set count must be a nonzero power of two. */
void
requirePow2Sets(const char *knob, size_t sets, const std::string &formula)
{
    if (!isPow2(sets))
        badKnob(knob, "must yield a nonzero power-of-two set count (" +
                          formula + " = " + std::to_string(sets) + " sets)");
}

} // anonymous namespace

const char *
cgciHeuristicName(CgciHeuristic h)
{
    switch (h) {
      case CgciHeuristic::NONE: return "none";
      case CgciHeuristic::RET: return "RET";
      case CgciHeuristic::MLB_RET: return "MLB-RET";
    }
    return "?";
}

ProcessorConfig
ProcessorConfig::forModel(std::string_view model)
{
    ProcessorConfig cfg;
    if (model == "base") {
        // defaults
    } else if (model == "base(ntb)") {
        cfg.selection.ntb = true;
    } else if (model == "base(fg)") {
        cfg.selection.fg = true;
    } else if (model == "base(fg,ntb)") {
        cfg.selection.fg = true;
        cfg.selection.ntb = true;
    } else if (model == "RET") {
        cfg.cgci = CgciHeuristic::RET;
    } else if (model == "MLB-RET") {
        cfg.selection.ntb = true;       // ntb exposes loop exits for MLB
        cfg.cgci = CgciHeuristic::MLB_RET;
    } else if (model == "FG") {
        cfg.selection.fg = true;
        cfg.fgci = true;
    } else if (model == "FG+MLB-RET") {
        cfg.selection.fg = true;
        cfg.selection.ntb = true;
        cfg.fgci = true;
        cfg.cgci = CgciHeuristic::MLB_RET;
    } else {
        // Structured so CLIs can catch it for a usage message; an
        // unknown model name is operator input, not a simulator bug.
        // The menu rides in the message, matching the
        // UnknownWorkloadError convention.
        throw ConfigError(
            "model", "unknown processor model '" + std::string(model) +
                         "' (known: base, base(ntb), base(fg), "
                         "base(fg,ntb), RET, MLB-RET, FG, FG+MLB-RET)");
    }
    cfg.bit.maxTraceLen = cfg.selection.maxTraceLen;
    return cfg;
}

void
ProcessorConfig::validate() const
{
    // Machine structure: every PE/bus/issue count must be live.
    requirePositive("numPEs", numPEs);
    requirePositive("issuePerPe", issuePerPe);
    requirePositive("globalBuses", globalBuses);
    requirePositive("maxBusesPerPe", maxBusesPerPe);
    requirePositive("cacheBuses", cacheBuses);
    requirePositive("maxCacheBusesPerPe", maxCacheBusesPerPe);
    if (frontendLatency < 0)
        badKnob("frontendLatency", "must be >= 0 (got " +
                                       std::to_string(frontendLatency) + ")");
    if (loadReissuePenalty < 0)
        badKnob("loadReissuePenalty",
                "must be >= 0 (got " + std::to_string(loadReissuePenalty) +
                    ")");

    // Trace selection: a trace holds at least one instruction, and the
    // BIT's notion of the maximum length must agree with selection's
    // (forModel keeps them synced; hand-built configs can drift).
    requirePositive("selection.maxTraceLen", selection.maxTraceLen);
    if (selection.maxTraceLen > maxTraceSlots)
        badKnob("selection.maxTraceLen",
                "must be <= " + std::to_string(maxTraceSlots) + " (got " +
                    std::to_string(selection.maxTraceLen) + ")");
    requirePositive("bit.maxTraceLen", bit.maxTraceLen);
    if (bit.maxTraceLen != selection.maxTraceLen)
        badKnob("bit.maxTraceLen",
                "must equal selection.maxTraceLen (got " +
                    std::to_string(bit.maxTraceLen) + " vs " +
                    std::to_string(selection.maxTraceLen) + ")");
    requirePositive("bit.edgeArraySize", bit.edgeArraySize);

    // Caches: replicate each constructor's set-count formula so the
    // rejection happens here, with a knob name, not in a panic_if deep
    // inside SetAssocCache.
    requirePositive("icache.assoc", static_cast<long long>(icache.assoc));
    requirePositive("icache.lineInsts",
                    static_cast<long long>(icache.lineInsts));
    requirePow2Sets("icache.sizeBytes",
                    icache.sizeBytes / (icache.assoc * icache.lineInsts * 4),
                    "sizeBytes / (assoc * lineInsts * 4)");
    requirePositive("dcache.assoc", static_cast<long long>(dcache.assoc));
    requirePositive("dcache.lineBytes",
                    static_cast<long long>(dcache.lineBytes));
    requirePow2Sets("dcache.sizeBytes",
                    dcache.sizeBytes / (dcache.assoc * dcache.lineBytes),
                    "sizeBytes / (assoc * lineBytes)");
    requirePositive("tcache.assoc", static_cast<long long>(tcache.assoc));
    requirePositive("tcache.lineInsts",
                    static_cast<long long>(tcache.lineInsts));
    requirePow2Sets("tcache.sizeBytes",
                    tcache.sizeBytes /
                        (tcache.assoc * tcache.lineInsts *
                         TraceCache::Params::instBytes),
                    "sizeBytes / (assoc * lineInsts * 4)");
    requirePositive("bit.assoc", static_cast<long long>(bit.assoc));
    requirePow2Sets("bit.entries", bit.entries / bit.assoc,
                    "entries / assoc");

    // Predictors. Note tpred tables must be *nonzero* powers of two:
    // TracePredictor's own panic_if passes 0 (0 & -1 == 0) and then
    // masks indices into an empty table.
    if (!isPow2(tpred.pathEntries))
        badKnob("tpred.pathEntries",
                "must be a nonzero power of two (got " +
                    std::to_string(tpred.pathEntries) + ")");
    if (!isPow2(tpred.simpleEntries))
        badKnob("tpred.simpleEntries",
                "must be a nonzero power of two (got " +
                    std::to_string(tpred.simpleEntries) + ")");
    if (!isPow2(btbEntries))
        badKnob("btbEntries", "must be a nonzero power of two (got " +
                                  std::to_string(btbEntries) + ")");

    // Rename: worst case every resident trace holds maxTraceLen new
    // destination mappings while the previous mappings are still
    // referenced, plus the committed architectural map.
    const size_t worstInFlight =
        static_cast<size_t>(numArchRegs) +
        2 * static_cast<size_t>(numPEs) *
            static_cast<size_t>(selection.maxTraceLen);
    if (physRegs < worstInFlight)
        badKnob("physRegs",
                "must cover the worst-case in-flight window: >= "
                "numArchRegs + 2*numPEs*maxTraceLen = " +
                    std::to_string(worstInFlight) + " (got " +
                    std::to_string(physRegs) + ")");

    // Simulation controls.
    requirePositive("cgciReconvergeTimeout",
                    static_cast<long long>(cgciReconvergeTimeout));
    requirePositive("watchdogCycles",
                    static_cast<long long>(watchdogCycles));
    if (metricsInterval > 0 && metricsCapacity < 1)
        badKnob("metricsCapacity", "must be >= 1 when metricsInterval > 0");
}

} // namespace tproc
