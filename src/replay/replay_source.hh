/**
 * @file
 * ReplaySource: an ArchSource that reproduces a recorded architectural
 * execution from a trace file. Drop-in for the live Emulator on the
 * timing processor's retirement-verification port — a full simulation
 * runs bit-identically off the file.
 */

#ifndef TPROC_REPLAY_REPLAY_SOURCE_HH
#define TPROC_REPLAY_REPLAY_SOURCE_HH

#include <memory>

#include "emulator/emulator.hh"
#include "replay/trace_file.hh"

namespace tproc::replay
{

/**
 * An Emulator over a parsed trace's program. TraceReader verified at
 * parse time that emulating that program reproduces the captured
 * execution, so this source serves exactly the recorded steps. The
 * parsed trace is shared and immutable (any number of concurrent
 * ReplaySources over one reader); each source carries its own
 * emulator. Stepping past the end of a trace that did not reach its
 * program's HALT throws TraceError: the capture cap was too small for
 * this simulation, and replaying on would serve steps no digest
 * covers.
 */
class ReplaySource : public ArchSource
{
  public:
    explicit ReplaySource(std::shared_ptr<const TraceReader> reader_);

    StepResult step() override;
    bool halted() const override { return emu.halted(); }
    uint64_t instCount() const override { return emu.instCount(); }

  private:
    /** Panics on null so the emulator below never sees one. */
    static std::shared_ptr<const TraceReader>
    checked(std::shared_ptr<const TraceReader> r);

    std::shared_ptr<const TraceReader> reader;
    uint64_t capturedSteps;
    Emulator emu;
};

} // namespace tproc::replay

#endif // TPROC_REPLAY_REPLAY_SOURCE_HH
