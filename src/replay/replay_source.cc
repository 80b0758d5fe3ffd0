#include "replay/replay_source.hh"

#include <string>

#include "common/logging.hh"

namespace tproc::replay
{

std::shared_ptr<const TraceReader>
ReplaySource::checked(std::shared_ptr<const TraceReader> r)
{
    panic_if(!r, "ReplaySource needs a TraceReader");
    return r;
}

ReplaySource::ReplaySource(std::shared_ptr<const TraceReader> reader_)
    : reader(checked(std::move(reader_))),
      capturedSteps(reader->info().totalSteps), emu(reader->program())
{
}

StepResult
ReplaySource::step()
{
    if (emu.instCount() == capturedSteps && !emu.halted()) {
        // A truncated capture is a property of the trace file, not a
        // simulator bug: throw the structured trace error so harnesses
        // can attribute it (and tell the user to re-record) instead of
        // dying in panic's abort path.
        throw TraceError(
            "replay: trace " + reader->meta().workload +
            " exhausted after " + std::to_string(capturedSteps) +
            " steps without HALT (captured with cap " +
            std::to_string(reader->meta().captureCap) +
            "; re-record with a higher instruction limit)");
    }
    return emu.step();
}

} // namespace tproc::replay
