#include "harness/soak.hh"

#include <chrono>
#include <filesystem>
#include <ostream>
#include <sstream>

#include "harness/golden.hh"
#include "harness/sweep.hh"
#include "replay/capture.hh"
#include "replay/trace_store.hh"
#include "workloads/generator.hh"

namespace tproc::harness
{

namespace
{

/** Summarize a StatDict divergence ("cycles=102 vs 104, ..."). */
std::string
diffSummary(const StatDict &a, const StatDict &b)
{
    std::ostringstream os;
    size_t shown = 0;
    const auto drift = diffStatDicts(a, b);
    for (const auto &d : drift) {
        if (++shown > 6) {
            os << ", ... " << drift.size() - 6 << " more";
            break;
        }
        if (shown > 1)
            os << ", ";
        os << d.key << "=" << d.expected << " vs " << d.actual;
    }
    return os.str();
}

} // anonymous namespace

SoakReport
runSoak(const SoakOptions &opts_)
{
    SoakOptions opts = opts_;
    if (opts.maxPoints == 0 && opts.maxSeconds == 0.0)
        opts.maxSeconds = 30.0;
    if (opts.scratchDir.empty())
        opts.scratchDir = opts.failureDir + ".store";

    // Fail on a bad mix up front, not at point 0 inside fault capture.
    parsePatternMix(opts.mix);

    SoakReport report;
    const auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&t0]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    for (uint64_t i = 0;; ++i) {
        if (opts.maxPoints && i >= opts.maxPoints)
            break;
        if (opts.maxSeconds > 0.0 && elapsed() >= opts.maxSeconds)
            break;

        const std::string name = generatedName(opts.mix, i);
        const std::string model =
            opts.models[i % opts.models.size()];

        SweepPoint base;
        base.workload = name;
        base.model = model;
        base.seed = opts.seed;
        base.maxInsts = opts.insts;
        base.verify = true;
        base.index = i;

        // Oracle 1: live, golden-verified (panics and watchdog barks
        // surface as result errors via fault capture).
        const SweepResult live = SweepEngine::runPoint(base);

        // Oracle 2: capture-once/replay: the run off the recorded
        // trace must be bit-identical to the live run.
        SweepPoint replayPoint = base;
        replayPoint.traceDir = opts.scratchDir;
        const SweepResult replayed = SweepEngine::runPoint(replayPoint);

        ++report.points;

        std::string kind, message;
        if (!live.ok) {
            kind = "panic";
            message = live.error;
        } else if (!replayed.ok) {
            kind = "panic(replay)";
            message = replayed.error;
        } else if (statsToDict(live.stats) !=
                   statsToDict(replayed.stats)) {
            kind = "replay-divergence";
            message = diffSummary(statsToDict(live.stats),
                                  statsToDict(replayed.stats));
        } else if (opts.injectFailureAt >= 0 &&
                   static_cast<uint64_t>(opts.injectFailureAt) == i) {
            kind = "injected";
            message = "injected divergence (test hook)";
        }

        if (kind.empty()) {
            if (opts.log) {
                *opts.log << "soak [" << i << "] " << name << "/"
                          << model << ": ok ipc="
                          << (live.stats.cycles ? live.stats.ipc()
                                                : 0.0)
                          << "\n";
            }
            continue;
        }

        // Capture-on-failure: land the offending workload as a replay
        // artifact named by the trace-store convention, so the repro
        // command below replays the exact captured stream.
        SoakFailure f;
        f.index = i;
        f.workload = name;
        f.model = model;
        f.seed = opts.seed;
        f.kind = kind;
        f.message = message;
        try {
            std::filesystem::create_directories(opts.failureDir);
            replay::TraceStore failStore(opts.failureDir);
            const std::string path =
                failStore.tracePath(name, opts.seed, base.scale,
                                    opts.insts);
            replay::captureWorkloadTrace(name, opts.seed, base.scale,
                                         opts.insts, path, true);
            f.tracePath = path;
        } catch (const std::exception &e) {
            f.message += " [capture failed: " + std::string(e.what()) +
                         "]";
        }
        {
            std::ostringstream os;
            os << "tproc-sweep --workloads='" << name << "' --models='"
               << model << "' --seed=" << opts.seed
               << " --insts=" << opts.insts
               << " --trace-dir=" << opts.failureDir;
            f.repro = os.str();
        }
        if (opts.log) {
            *opts.log << "soak FAILURE [" << i << "] " << name << "/"
                      << model << " (seed " << opts.seed
                      << "): " << kind << ": " << message << "\n";
            if (!f.tracePath.empty())
                *opts.log << "  captured: " << f.tracePath << "\n";
            *opts.log << "  repro: " << f.repro << "\n";
        }
        report.failures.push_back(std::move(f));
    }

    report.wallSeconds = elapsed();
    return report;
}

} // namespace tproc::harness
