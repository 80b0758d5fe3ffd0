#include "replay/capture.hh"

#include "common/hires_timer.hh"
#include "workloads/workloads.hh"

namespace tproc::replay
{

uint64_t
captureCapFor(uint64_t max_insts)
{
    if (max_insts >= UINT64_MAX - captureSlack)
        return UINT64_MAX;
    return max_insts + captureSlack;
}

std::shared_ptr<const TraceReader>
captureProgramTrace(const Program &prog, const TraceMeta &meta,
                    const std::string &path)
{
    auto capture_phase = PhaseTimers::global().scope("capture");
    return TraceReader::capture(prog, meta, path);
}

std::shared_ptr<const TraceReader>
captureWorkloadTrace(const std::string &workload, uint64_t seed,
                     double scale, uint64_t max_insts,
                     const std::string &path)
{
    const Workload w = makeWorkload(workload, seed, scale);
    TraceMeta meta;
    meta.workload = workload;
    meta.seed = seed;
    meta.scale = scale;
    meta.captureCap = captureCapFor(max_insts);
    meta.programName = w.program.name;
    return captureProgramTrace(w.program, meta, path);
}

} // namespace tproc::replay
