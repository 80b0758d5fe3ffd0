/**
 * @file
 * Trace capture: run the architectural emulator over a program (or a
 * named workload) and record the program plus the digest chain of its
 * execution to a trace file.
 */

#ifndef TPROC_REPLAY_CAPTURE_HH
#define TPROC_REPLAY_CAPTURE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "program/program.hh"
#include "replay/trace_file.hh"

namespace tproc::replay
{

/**
 * Extra emulator steps recorded beyond a requested retired-instruction
 * limit: trace retirement commits whole traces, so a timing run capped
 * at N instructions can retire up to one trace length past N, and the
 * replayed execution must cover the overshoot for any configuration.
 */
constexpr uint64_t captureSlack = 4096;

/** maxInsts + captureSlack, saturating at UINT64_MAX ("run to HALT"). */
uint64_t captureCapFor(uint64_t max_insts);

/**
 * Capture prog into a trace file at path (TraceReader::capture: the
 * decoded program emulated for up to meta.captureCap steps, written
 * atomically) and return the reader a parse of that file would
 * produce, counted as one "capture" phase. Throws TraceError when the
 * program cannot be stored or on I/O failure.
 */
std::shared_ptr<const TraceReader>
captureProgramTrace(const Program &prog, const TraceMeta &meta,
                    const std::string &path);

/**
 * Capture a named workload (makeWorkload identity): builds the program
 * from (workload, seed, scale) and records captureCapFor(max_insts)
 * steps. The resulting file carries everything replay needs — the
 * program itself and the digests its re-emulation must reproduce — so
 * later runs skip workload generation entirely. TraceStore::ensure,
 * `tproc-trace record` and the explorer's capture-on-failure all
 * capture through here.
 */
std::shared_ptr<const TraceReader>
captureWorkloadTrace(const std::string &workload, uint64_t seed,
                     double scale, uint64_t max_insts,
                     const std::string &path);

} // namespace tproc::replay

#endif // TPROC_REPLAY_CAPTURE_HH
