#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/logging.hh"
#include "core/runner.hh"
#include "emulator/emulator.hh"
#include "harness/sweep.hh"
#include "host_probe.hh"
#include "replay/replay_source.hh"
#include "replay/trace_store.hh"
#include "spans.hh"
#include "summary.hh"
#include "timed_source.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using tproc::ProcessorConfig;
using tproc::ProcessorStats;
namespace harness = tproc::harness;
namespace replay = tproc::replay;

namespace
{

/** Sweep threads of fig10-replay and of the reference check; fixed
 *  here, never read from the host. */
constexpr unsigned sweepThreads = 4;

/** The paper's average FG+MLB-RET IPC gain (Figure 10, Section 6.2). */
constexpr double paperFgMlbRetGain = 0.10;

const std::vector<std::string> fig10Models = {"base", "RET", "MLB-RET",
                                              "FG", "FG+MLB-RET"};

/**
 * ci-stress: generated programs from the fgci, noisy and loops
 * families, the same number of each (gen:<family>:<index>, index <
 * ciStressPerFamily). A fixed family mix keeps the set's work steady
 * across seeds; a random per-program family draw does not.
 */
const std::vector<std::string> ciStressFamilies = {"fgci", "noisy",
                                                   "loops"};
constexpr uint64_t ciStressPerFamily = 16;
const char *const ciStressModel = "FG+MLB-RET";

/** Retired-instruction limit per point. fig10-replay's base points
 *  must match analog-live's, so the two share one limit. */
constexpr uint64_t analogInsts = 250000;
constexpr uint64_t ciStressInsts = 62500;

enum class Kind { AnalogLive, CiStress, Fig10Replay };

struct PointSpec
{
    std::string workload;
    std::string model;
    uint64_t insts = analogInsts;

    std::string label() const { return workload + "/" + model; }
};

struct PointResult
{
    ProcessorStats stats;
    bool ok = false;
    std::string error;
};

/** What the traced run measures around one point. */
struct PointTrace
{
    Aggregate arch;             //!< ArchSource::step (emulator or replay)
    Aggregate cycle;            //!< Processor::step
    int64_t constructNs = 0;    //!< Processor constructor
    int64_t loadNs = 0;         //!< makeWorkload or TraceStore::ensure
    bool ensureHit = false;     //!< ensure served from the parsed cache
    int64_t wallNs = 0;         //!< whole point span
};

struct SetResult
{
    bool traced = false;
    double wallS = 0.0;                 //!< outer timer, probes excluded
    double hostSpeed = 1.0;             //!< probe speed over the set
    std::vector<PointResult> points;
    std::vector<PointTrace> trace;      //!< traced sets only
    int64_t tailNs = 0;                 //!< batch end - first idle worker
    int64_t idleNs = 0;                 //!< idle worker capacity
};

/**
 * Host-speed probes taken during one set: one right after each point,
 * on the thread that ran it, weighted by the point's wall time.
 */
struct SpeedLog
{
    std::mutex mutex;
    double weighted = 0.0;      //!< sum of speed x point wall
    double weight = 0.0;        //!< sum of point wall
    int64_t probeNs = 0;

    void
    probe(double point_wall_s)
    {
        const int64_t t0 = nowNs();
        const double s = probeHostSpeed();
        const int64_t dt = nowNs() - t0;
        std::lock_guard<std::mutex> lock(mutex);
        weighted += s * point_wall_s;
        weight += point_wall_s;
        probeNs += dt;
    }

    /** Host speed over the set's points. */
    double speed() const { return weight > 0 ? weighted / weight : 1.0; }
};

// ------------------------------------------------------------ set-up

std::vector<PointSpec>
pointsFor(Kind kind)
{
    std::vector<PointSpec> pts;
    switch (kind) {
      case Kind::AnalogLive:
        for (const auto &w : tproc::workloadNames())
            pts.push_back({w, "base", analogInsts});
        break;
      case Kind::CiStress:
        for (uint64_t i = 0; i < ciStressPerFamily; ++i) {
            for (const auto &f : ciStressFamilies)
                pts.push_back({tproc::generatedName(f, i), ciStressModel,
                               ciStressInsts});
        }
        break;
      case Kind::Fig10Replay:
        for (const auto &w : tproc::workloadNames()) {
            for (const auto &m : fig10Models)
                pts.push_back({w, m, analogInsts});
        }
        break;
    }
    return pts;
}

ProcessorConfig
configFor(const PointSpec &p)
{
    ProcessorConfig cfg = ProcessorConfig::forModel(p.model);
    cfg.verifyRetirement = true;
    cfg.metricsInterval = 0;
    return cfg;
}

std::vector<harness::SweepPoint>
sweepPointsFor(const std::vector<PointSpec> &pts, const Options &opt,
               const std::string &trace_dir)
{
    std::vector<harness::SweepPoint> out;
    for (const PointSpec &p : pts) {
        harness::SweepPoint sp;
        sp.workload = p.workload;
        sp.model = p.model;
        sp.seed = opt.seed;
        sp.maxInsts = p.insts;
        sp.verify = true;
        sp.traceDir = trace_dir;
        sp.index = out.size();
        out.push_back(std::move(sp));
    }
    return out;
}

std::vector<PointResult>
fromSweep(const std::vector<harness::SweepResult> &rs)
{
    std::vector<PointResult> out;
    for (const auto &r : rs)
        out.push_back({r.stats, r.ok, r.error});
    return out;
}

// ------------------------------------------------------ untraced sets

/** One live point exactly as a user runs it: build the workload, then
 *  runConfig with the live Emulator verifying retirement. */
PointResult
runLivePoint(const PointSpec &p, const Options &opt)
{
    PointResult r;
    try {
        tproc::ScopedErrorCapture capture;
        tproc::Workload w = tproc::makeWorkload(p.workload, opt.seed);
        r.stats = tproc::runConfig(w.program, configFor(p), p.insts);
        r.ok = true;
    } catch (const std::exception &e) {
        r.error = e.what();
    }
    return r;
}

std::vector<PointResult>
untracedSet(Kind kind, const std::vector<PointSpec> &pts,
            const Options &opt, const std::string &trace_dir,
            SpeedLog &speed)
{
    if (kind == Kind::Fig10Replay) {
        // The timed phase reads the captured traces back from disk.
        replay::TraceStore::dropCache();
        harness::SweepEngine::Options eo;
        eo.threads = sweepThreads;
        // Probe on the worker that just finished a point.
        eo.onResult = [&speed](const harness::SweepResult &r) {
            speed.probe(r.wallSeconds);
        };
        return fromSweep(harness::SweepEngine(eo).run(
            sweepPointsFor(pts, opt, trace_dir)));
    }
    std::vector<PointResult> out;
    for (const PointSpec &p : pts) {
        const int64_t t0 = nowNs();
        out.push_back(runLivePoint(p, opt));
        speed.probe((nowNs() - t0) / 1e9);
    }
    return out;
}

// -------------------------------------------------------- traced sets

/**
 * What Processor::run does, one timed step at a time: construct the
 * processor around a timing wrapper of the golden source, step until
 * done or the instruction limit, then call run() — it finds nothing
 * left to simulate and folds the component counters in.
 */
ProcessorStats
simulateTraced(const tproc::Program &prog, const ProcessorConfig &cfg,
               std::unique_ptr<tproc::ArchSource> golden,
               const std::string &arch_layer, uint64_t insts,
               SpanRecorder &rec, int parent, int point, int thread,
               PointTrace &pt)
{
    std::unique_ptr<tproc::Processor> proc;
    {
        ScopedSpan s(rec, "Processor()", "core", parent, point, thread);
        const int64_t t0 = nowNs();
        proc = std::make_unique<tproc::Processor>(
            prog, cfg,
            std::make_unique<TimedArchSource>(std::move(golden), pt.arch));
        pt.constructNs = nowNs() - t0;
    }
    ProcessorStats st;
    {
        ScopedSpan s(rec, "Processor::step*", "core", parent, point, thread);
        int64_t t = nowNs();
        while (!proc->done() && proc->statsSoFar().retiredInsts < insts) {
            proc->step();
            const int64_t t2 = nowNs();
            pt.cycle.add(t2 - t);
            t = t2;
        }
        st = proc->run(insts);
        rec.nest(s.id(), arch_layer, pt.arch.totalNs);
    }
    ScopedSpan s(rec, "~Processor", "core", parent, point, thread);
    proc.reset();
    return st;
}

PointResult
tracedLivePoint(const PointSpec &p, const Options &opt, SpanRecorder &rec,
                int parent, int point, PointTrace &pt)
{
    PointResult r;
    const int64_t t0 = nowNs();
    {
        ScopedSpan ps(rec, p.label(), "harness", parent, point, 0);
        try {
            tproc::ScopedErrorCapture capture;
            const int64_t b0 = nowNs();
            std::unique_ptr<tproc::Workload> w;
            {
                ScopedSpan bs(rec, "makeWorkload", "workloads", ps.id(),
                              point, 0);
                w = std::make_unique<tproc::Workload>(
                    tproc::makeWorkload(p.workload, opt.seed));
            }
            pt.loadNs = nowNs() - b0;
            r.stats = simulateTraced(
                w->program, configFor(p),
                std::make_unique<tproc::Emulator>(w->program), "emulator",
                p.insts, rec, ps.id(), point, 0, pt);
            ScopedSpan ds(rec, "~Workload", "workloads", ps.id(), point, 0);
            w.reset();
            r.ok = true;
        } catch (const std::exception &e) {
            r.error = e.what();
        }
    }
    pt.wallNs = nowNs() - t0;
    return r;
}

/** Readers handed out so far in one set: a reader seen before came
 *  from the parsed-trace cache, a new one was parsed by that call. */
struct ReaderLog
{
    std::mutex mutex;
    std::set<const void *> seen;

    bool
    hit(const void *reader)
    {
        std::lock_guard<std::mutex> lock(mutex);
        return !seen.insert(reader).second;
    }
};

/** SweepEngine::runPoint's replay path, with the same public calls in
 *  the same order: TraceStore::ensure, Processor, run. */
PointResult
tracedReplayPoint(const PointSpec &p, const Options &opt,
                  const std::string &trace_dir, ReaderLog &readers,
                  SpanRecorder &rec, int parent, int point, int thread,
                  PointTrace &pt)
{
    PointResult r;
    const int64_t t0 = nowNs();
    {
        ScopedSpan ps(rec, p.label(), "harness", parent, point, thread);
        try {
            tproc::ScopedErrorCapture capture;
            ProcessorConfig cfg = configFor(p);
            replay::TraceStore store(trace_dir);
            replay::TraceStore::EnsureResult ensured;
            {
                ScopedSpan es(rec, "TraceStore::ensure", "replay", ps.id(),
                              point, thread);
                const int64_t e0 = nowNs();
                ensured = store.ensure(p.workload, opt.seed, 1.0,
                                       p.insts);
                pt.loadNs = nowNs() - e0;
            }
            pt.ensureHit = readers.hit(ensured.reader.get());
            r.stats = simulateTraced(
                ensured.reader->program(), cfg,
                std::make_unique<replay::ReplaySource>(ensured.reader),
                "replay", p.insts, rec, ps.id(), point, thread, pt);
            r.ok = true;
        } catch (const std::exception &e) {
            r.error = e.what();
        }
    }
    pt.wallNs = nowNs() - t0;
    return r;
}

/** Traced set; rec receives its spans. Returns its results and the
 *  per-point measurements. */
SetResult
tracedSet(Kind kind, const std::vector<PointSpec> &pts, const Options &opt,
          const std::string &trace_dir, SpanRecorder &rec, SpeedLog &speed)
{
    SetResult sr;
    sr.traced = true;
    sr.points.resize(pts.size());
    sr.trace.resize(pts.size());
    ScopedSpan set(rec, "set", "harness", -1, -1, 0);
    if (kind != Kind::Fig10Replay) {
        for (size_t i = 0; i < pts.size(); ++i) {
            sr.points[i] = tracedLivePoint(pts[i], opt, rec, set.id(),
                                           static_cast<int>(i),
                                           sr.trace[i]);
            ScopedSpan probe(rec, "host probe", "probe", set.id(), -1, 0);
            speed.probe(sr.trace[i].wallNs / 1e9);
        }
        return sr;
    }

    // SweepEngine::run's scheduling: workers pull points in order.
    replay::TraceStore::dropCache();
    ScopedSpan batch(rec, "batch", "harness", set.id(), -1, 0);
    const int64_t b0 = nowNs();
    const unsigned n = std::min<unsigned>(
        sweepThreads, static_cast<unsigned>(pts.size()));
    std::vector<int64_t> workerNs(n, 0);
    std::vector<int64_t> workerEnd(n, 0);
    std::atomic<size_t> next{0};
    ReaderLog readers;
    {
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < n; ++t) {
            pool.emplace_back([&, t]() {
                const int64_t w0 = nowNs();
                {
                    ScopedSpan ws(rec, "worker", "harness", batch.id(), -1,
                                  static_cast<int>(t) + 1);
                    for (;;) {
                        const size_t i = next.fetch_add(1);
                        if (i >= pts.size())
                            break;
                        sr.points[i] = tracedReplayPoint(
                            pts[i], opt, trace_dir, readers, rec, ws.id(),
                            static_cast<int>(i), static_cast<int>(t) + 1,
                            sr.trace[i]);
                        ScopedSpan probe(rec, "host probe", "probe", ws.id(),
                                         -1, static_cast<int>(t) + 1);
                        speed.probe(sr.trace[i].wallNs / 1e9);
                    }
                }
                workerEnd[t] = nowNs();
                workerNs[t] = workerEnd[t] - w0;
            });
        }
        for (auto &th : pool)
            th.join();
    }
    const int64_t b1 = nowNs();
    sr.tailNs = b1 - *std::min_element(workerEnd.begin(), workerEnd.end());
    for (int64_t w : workerNs)
        sr.idleNs += std::max<int64_t>(0, (b1 - b0) - w);
    return sr;
}

// ------------------------------------------------------------ metrics

/** Every ProcessorStats counter summed over one set's points. */
tproc::StatDict
totals(const std::vector<PointResult> &pts)
{
    tproc::StatDict d;
    for (const PointResult &p : pts)
        d.merge(harness::statsToDict(p.stats));
    return d;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** |mean over the analogs of IPC(FG+MLB-RET)/IPC(base) - 1 - 10%| in
 *  percentage points. ipc maps "workload/model" to IPC. */
double
fig10GainErrPp(const std::map<std::string, double> &ipc)
{
    double sum = 0.0;
    for (const auto &w : tproc::workloadNames())
        sum += ipc.at(w + "/FG+MLB-RET") / ipc.at(w + "/base") - 1.0;
    const double gain = sum / tproc::workloadNames().size();
    return std::fabs(gain - paperFgMlbRetGain) * 100.0;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;    // KiB on Linux
}

Kind
kindOf(const std::string &name)
{
    if (name == "analog-live")
        return Kind::AnalogLive;
    if (name == "ci-stress")
        return Kind::CiStress;
    if (name == "fig10-replay")
        return Kind::Fig10Replay;
    throw std::runtime_error("unknown workload '" + name +
                             "' (analog-live, ci-stress, fig10-replay)");
}

} // anonymous namespace

const std::vector<std::string> &
benchWorkloads()
{
    static const std::vector<std::string> names = {
        "analog-live", "ci-stress", "fig10-replay"};
    return names;
}

const std::vector<MetricDef> &
metricDefs()
{
    static const std::vector<MetricDef> defs = {
        {"sim_kips", "kips", false},
        {"sim_kcps", "kcps", false},
        {"peak_rss_mb", "MB", false},
        {"fig10_gain_err_pp", "pp", false},
        {"workloads.build_s", "s", true},
        {"workloads.share", "frac", true},
        {"emulator.steps", "count", true},
        {"emulator.step_ns", "ns", true},
        {"emulator.share", "frac", true},
        {"replay.capture_s", "s", true},
        {"replay.parse_s", "s", true},
        {"replay.ensure_hit_ratio", "frac", true},
        {"replay.trace_mb", "MB", true},
        {"replay.steps", "count", true},
        {"replay.step_ns", "ns", true},
        {"replay.share", "frac", true},
        {"core.construct_ms", "ms", true},
        {"core.cycles", "count", true},
        {"core.cycle_self_ns", "ns", true},
        {"core.share", "frac", true},
        {"core.sim_ipc", "ipc", true},
        {"core.misp_per_kinst", "per_kinst", true},
        {"core.useful_frac", "frac", true},
        {"core.dispatch_blocked_frac", "frac", true},
        {"core.fgci_per_kinst", "per_kinst", true},
        {"core.cgci_per_kinst", "per_kinst", true},
        {"core.full_per_kinst", "per_kinst", true},
        {"core.cgci_reconverge_ratio", "frac", true},
        {"core.preserved_per_kinst", "per_kinst", true},
        {"pe.reissued_per_kinst", "per_kinst", true},
        {"pe.reissue_local_per_kinst", "per_kinst", true},
        {"pe.reissue_global_per_kinst", "per_kinst", true},
        {"pe.reissue_viol_per_kinst", "per_kinst", true},
        {"pe.reissue_redisp_per_kinst", "per_kinst", true},
        {"arb.violations_per_kinst", "per_kinst", true},
        {"cache.dc_miss_ratio", "frac", true},
        {"cache.ic_miss_ratio", "frac", true},
        {"frontend.tc_miss_ratio", "frac", true},
        {"frontend.pred_ratio", "frac", true},
        {"frontend.constructions_per_kinst", "per_kinst", true},
        {"frontend.fetch_stall_frac", "frac", true},
        {"harness.sweep_util", "frac", true},
        {"harness.tail_s", "s", true},
        {"harness.point_s_p50", "s", true},
        {"harness.point_s_p75", "s", true},
        {"harness.share", "frac", true},
        {"trace_overhead_frac", "frac", true},
        {"trace_unaccounted_frac", "frac", true},
        {"host.speed", "ratio", true},
        {"host.raw_kips", "kips", true},
    };
    return defs;
}

Report
runBenchmark(const Options &opt, std::ostream &log)
{
    const Kind kind = kindOf(opt.workload);
    if (opt.seconds <= 0.0)
        throw std::runtime_error("--seconds must be positive");
    if (kind == Kind::Fig10Replay && opt.workDir.empty())
        throw std::runtime_error("fig10-replay needs --work-dir");
    const std::vector<PointSpec> pts = pointsFor(kind);
    const bool serial = kind != Kind::Fig10Replay;
    const unsigned threads = serial ? 1 : sweepThreads;

    log << "perfbench: workload=" << opt.workload << " seed=" << opt.seed
        << " points=" << pts.size() << " insts/point=" << pts.front().insts
        << " threads=" << threads
        << (opt.trace ? " traced" : " untraced") << "\n";

    // ---- Set-up: option handling, plus trace capture for replay.
    Report rep;
    std::string traceDir;
    double captureS = 0.0;
    double traceMb = 0.0;
    for (const PointSpec &p : pts)
        configFor(p).validate();
    if (kind == Kind::Fig10Replay) {
        traceDir = opt.workDir + "/traces";
        std::filesystem::remove_all(traceDir);
        std::filesystem::create_directories(traceDir);
        replay::TraceStore store(traceDir);
        for (const auto &w : tproc::workloadNames()) {
            const int64_t t0 = nowNs();
            auto ensured = store.ensure(w, opt.seed, 1.0, analogInsts);
            captureS += (nowNs() - t0) / 1e9;
            if (!ensured.captured)
                throw std::runtime_error("trace directory was not fresh");
            for (const auto &c : ensured.reader->info().chunkStats)
                traceMb += c.plainBytes / 1e6;
        }
        replay::TraceStore::dropCache();
    }
    rep.readyNs = nowNs();
    rep.setupSpeed = probeHostSpeed();
    if (opt.setupOnly) {
        rep.correct = true;
        rep.attempted = 1;
        return rep;
    }

    // ---- Timed phase: whole sets until the time is up. A traced run
    // alternates untraced and traced sets so it can state its own
    // tracing overhead. Each set is scaled by the host speed its
    // per-point probes saw, and the probes' own time is taken out of
    // its wall.
    SpanRecorder rec;
    std::vector<SetResult> sets;
    size_t nUntraced = 0, nTraced = 0;
    const int64_t start = nowNs();
    for (;;) {
        const double elapsed = (nowNs() - start) / 1e9;
        if (elapsed >= opt.seconds && nUntraced > 0 &&
            (!opt.trace || nTraced > 0))
            break;
        const bool traced = opt.trace && sets.size() % 2 == 1;
        SpeedLog speed;
        const int64_t t0 = nowNs();
        SetResult sr;
        if (traced) {
            sr = tracedSet(kind, pts, opt, traceDir, rec, speed);
        } else {
            sr.points = untracedSet(kind, pts, opt, traceDir, speed);
        }
        sr.wallS = (nowNs() - t0 - speed.probeNs / threads) / 1e9;
        sr.hostSpeed = speed.speed();
        ++(traced ? nTraced : nUntraced);
        const tproc::StatDict tot = totals(sr.points);
        const double insts = tot.get("retiredInsts");
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "set %zu (%s): %.4f s, %.1f kips raw, host speed "
                      "%.3f, %.1f kips, %.1f kcps\n",
                      sets.size() + 1, traced ? "traced" : "untraced",
                      sr.wallS, insts / sr.wallS / 1e3, sr.hostSpeed,
                      insts / sr.wallS / 1e3 / sr.hostSpeed,
                      tot.get("cycles") / sr.wallS / 1e3 / sr.hostSpeed);
        log << buf;
        sets.push_back(std::move(sr));
    }
    const double rssMb = peakRssMb();

    // ---- Correctness: every point ok and identical across all sets.
    std::vector<std::string> problems;
    const std::vector<PointResult> &first = sets.front().points;
    std::vector<uint64_t> digests(pts.size(), 0);
    for (size_t i = 0; i < pts.size(); ++i)
        digests[i] = first[i].ok ? statsDigest(first[i].stats) : 0;
    for (size_t s = 0; s < sets.size(); ++s) {
        for (size_t i = 0; i < pts.size(); ++i) {
            const PointResult &r = sets[s].points[i];
            ++rep.attempted;
            std::string why;
            if (!r.ok)
                why = "error: " + r.error;
            else if (statsDigest(r.stats) != digests[i])
                why = "stats digest differs from set 1";
            if (!why.empty()) {
                ++rep.failed;
                problems.push_back("set " + std::to_string(s + 1) + " " +
                                   pts[i].label() + ": " + why);
            }
        }
    }

    // Reference: the analogs on base and FG+MLB-RET, live, through
    // SweepEngine. Gives fig10_gain_err_pp on every workload and the
    // live side of the replay == live check.
    harness::SweepEngine::Options eo;
    eo.threads = sweepThreads;
    std::vector<PointSpec> refPts;
    for (const auto &w : tproc::workloadNames()) {
        refPts.push_back({w, "base", analogInsts});
        refPts.push_back({w, "FG+MLB-RET", analogInsts});
    }
    const std::vector<PointResult> ref = fromSweep(
        harness::SweepEngine(eo).run(sweepPointsFor(refPts, opt, "")));
    std::map<std::string, double> refIpc;
    std::map<std::string, uint64_t> refDigest;
    bool refOk = true;
    for (size_t i = 0; i < refPts.size(); ++i) {
        ++rep.attempted;
        if (!ref[i].ok) {
            ++rep.failed;
            refOk = false;
            problems.push_back("reference " + refPts[i].label() + ": " +
                               ref[i].error);
            continue;
        }
        refIpc[refPts[i].label()] = ref[i].stats.ipc();
        refDigest[refPts[i].label()] = statsDigest(ref[i].stats);
    }
    const double gainErr = refOk ? fig10GainErrPp(refIpc) : 0.0;
    if (kind != Kind::CiStress) {
        // Live serial == live sweep (analog-live) and replay == live
        // (fig10-replay) at the same seed and instruction limit.
        std::map<std::string, double> ownIpc;
        for (size_t i = 0; i < pts.size(); ++i) {
            auto it = refDigest.find(pts[i].label());
            if (it == refDigest.end() || !first[i].ok)
                continue;
            ownIpc[pts[i].label()] = first[i].stats.ipc();
            if (it->second != digests[i]) {
                ++rep.failed;
                problems.push_back(pts[i].label() +
                                   ": stats digest differs from the "
                                   "live reference");
            }
        }
        if (kind == Kind::Fig10Replay && refOk && rep.failed == 0 &&
            fig10GainErrPp(ownIpc) != gainErr) {
            ++rep.failed;
            problems.push_back("fig10_gain_err_pp differs between the "
                               "replayed matrix and the live reference");
        }
    }

    log << "stats digests (all " << sets.size()
        << " sets agree unless listed below):\n";
    for (size_t i = 0; i < pts.size(); ++i)
        log << "  " << hexDigest(digests[i]) << "  " << pts[i].label()
            << "\n";
    for (const auto &p : problems)
        log << "FAILED " << p << "\n";
    rep.correct = rep.failed == 0;

    // ---- End-to-end metrics (untraced sets only), in reference-speed
    // seconds: wall x host speed.
    std::vector<double> kips, rawKips, kcps, untracedWall, tracedWall;
    std::vector<double> speeds;
    for (const SetResult &s : sets) {
        speeds.push_back(s.hostSpeed);
        const double refWall = s.wallS * s.hostSpeed;
        if (s.traced) {
            tracedWall.push_back(refWall);
            continue;
        }
        const tproc::StatDict tot = totals(s.points);
        kips.push_back(tot.get("retiredInsts") / refWall / 1e3);
        rawKips.push_back(tot.get("retiredInsts") / s.wallS / 1e3);
        kcps.push_back(tot.get("cycles") / refWall / 1e3);
        untracedWall.push_back(refWall);
    }
    log << "sim_kips: " << describeTiming(kips, "kips") << "\n"
        << "raw kips: " << describeTiming(rawKips, "kips") << "\n"
        << "host speed: " << describeTiming(speeds, "x reference") << "\n"
        << "set wall (reference speed): "
        << describeTiming(untracedWall, "s") << "\n";
    char gbuf[96];
    std::snprintf(gbuf, sizeof(gbuf), "fig10_gain_err_pp: %.17g\n", gainErr);
    log << gbuf;

    if (!opt.trace) {
        rep.metrics = {{"sim_kips", median(kips)},
                       {"sim_kcps", median(kcps)},
                       {"peak_rss_mb", rssMb},
                       {"fig10_gain_err_pp", gainErr}};
        return rep;
    }

    // ---- Per-layer metrics (traced sets).
    const std::vector<Span> spans = rec.spans();
    std::map<std::string, int64_t> layers = layerTimes(spans);
    layers.erase("probe");      // taken out of the timed wall as well
    double capacityNs = 0.0;
    std::vector<double> pointS, tails;
    Aggregate arch, cycle;
    int64_t constructNs = 0, parseNs = 0, idleNs = 0;
    uint64_t ensureCalls = 0, ensureHits = 0;
    double pointWallNs = 0.0;
    const SetResult *firstTraced = nullptr;
    for (const SetResult &s : sets) {
        if (!s.traced)
            continue;
        if (!firstTraced)
            firstTraced = &s;
        capacityNs += s.wallS * 1e9 * threads;
        idleNs += s.idleNs;
        tails.push_back(s.tailNs / 1e9);
        for (const PointTrace &t : s.trace) {
            arch.count += t.arch.count;
            arch.totalNs += t.arch.totalNs;
            cycle.count += t.cycle.count;
            cycle.totalNs += t.cycle.totalNs;
            constructNs += t.constructNs;
            pointS.push_back(t.wallNs / 1e9);
            pointWallNs += t.wallNs;
            if (kind == Kind::Fig10Replay) {
                ++ensureCalls;
                ensureHits += t.ensureHit ? 1 : 0;
                if (!t.ensureHit)
                    parseNs += t.loadNs;
            }
        }
    }
    // Worker slots left idle while the batch drains are harness time.
    layers["harness"] += idleNs;
    double totalNs = 0.0;
    for (const auto &[name, ns] : layers)
        totalNs += ns;
    const double nT = static_cast<double>(nTraced);
    auto share = [&](const char *layer) {
        auto it = layers.find(layer);
        return it == layers.end() ? 0.0 : ratio(it->second, totalNs);
    };
    const bool live = kind != Kind::Fig10Replay;
    // Simulated counts: identical in every set, so take the first.
    const tproc::StatDict tot = totals(firstTraced->points);
    auto c = [&tot](const char *counter) { return tot.get(counter); };
    const double insts = c("retiredInsts");
    const double cycles = c("cycles");
    auto perKinst = [insts](double n) { return ratio(1000.0 * n, insts); };
    const double archSteps = arch.count / nT;
    const double archStepNs = ratio(arch.totalNs, arch.count);

    log << "layer table (traced sets: " << nTraced
        << "; self time summed over " << threads << " thread"
        << (threads > 1 ? "s" : "") << "):\n";
    for (const auto &[name, ns] : layers) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "  %-10s %10.4f s  %6.2f%%\n",
                      name.c_str(), ns / 1e9 / nT, 100.0 * ratio(ns, totalNs));
        log << buf;
    }
    const double unaccounted =
        std::fabs(capacityNs - totalNs) / capacityNs;
    {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "  sum %.4f s per set vs timed wall x threads %.4f s"
                      " (unaccounted %.3f%%)\n",
                      totalNs / 1e9 / nT, capacityNs / 1e9 / nT,
                      100.0 * unaccounted);
        log << buf;
    }
    log << "point wall (traced): " << describeTiming(pointS, "s") << "\n";
    if (!opt.traceOut.empty()) {
        writeChromeTrace(opt.traceOut, spans);
        log << "span trace: " << opt.traceOut << " (" << spans.size()
            << " spans)\n";
    }

    rep.metrics = {
        {"workloads.build_s", layers["workloads"] / 1e9 / nT},
        {"workloads.share", share("workloads")},
        {"emulator.steps", live ? archSteps : 0.0},
        {"emulator.step_ns", live ? archStepNs : 0.0},
        {"emulator.share", share("emulator")},
        {"replay.capture_s", captureS},
        {"replay.parse_s", parseNs / 1e9 / nT},
        {"replay.ensure_hit_ratio", ratio(ensureHits, ensureCalls)},
        {"replay.trace_mb", traceMb},
        {"replay.steps", live ? 0.0 : archSteps},
        {"replay.step_ns", live ? 0.0 : archStepNs},
        {"replay.share", share("replay")},
        {"core.construct_ms",
         ratio(constructNs / 1e6, nT * static_cast<double>(pts.size()))},
        {"core.cycles", cycle.count / nT},
        {"core.cycle_self_ns",
         ratio(cycle.totalNs - arch.totalNs, cycle.count)},
        {"core.share", share("core")},
        {"core.sim_ipc", ratio(insts, cycles)},
        {"core.misp_per_kinst", perKinst(c("mispEvents"))},
        {"core.useful_frac", ratio(insts, insts + c("squashedInsts"))},
        {"core.dispatch_blocked_frac",
         ratio(c("dispatchBlockedCycles"), cycles)},
        {"core.fgci_per_kinst", perKinst(c("recoveriesFgci"))},
        {"core.cgci_per_kinst", perKinst(c("recoveriesCgci"))},
        {"core.full_per_kinst", perKinst(c("recoveriesFull"))},
        {"core.cgci_reconverge_ratio",
         ratio(c("cgciReconverged"),
               c("cgciReconverged") + c("cgciAbandoned"))},
        {"core.preserved_per_kinst", perKinst(c("tracesPreserved"))},
        {"pe.reissued_per_kinst", perKinst(c("reissuedSlots"))},
        {"pe.reissue_local_per_kinst", perKinst(c("reissueLocal"))},
        {"pe.reissue_global_per_kinst", perKinst(c("reissueGlobal"))},
        {"pe.reissue_viol_per_kinst", perKinst(c("reissueViol"))},
        {"pe.reissue_redisp_per_kinst", perKinst(c("reissueRedisp"))},
        {"arb.violations_per_kinst", perKinst(c("loadViolations"))},
        {"cache.dc_miss_ratio", ratio(c("dcMisses"), c("dcAccesses"))},
        {"cache.ic_miss_ratio", ratio(c("icMisses"), c("icAccesses"))},
        {"frontend.tc_miss_ratio", ratio(c("tcMisses"), c("tcLookups"))},
        {"frontend.pred_ratio",
         ratio(c("tracePredictions"),
               c("tracePredictions") + c("fallbackFetches"))},
        {"frontend.constructions_per_kinst", perKinst(c("constructions"))},
        {"frontend.fetch_stall_frac", ratio(c("fetchStallCycles"), cycles)},
        {"harness.sweep_util", ratio(pointWallNs, capacityNs)},
        {"harness.tail_s", median(tails)},
        {"harness.point_s_p50", quantile(pointS, 0.5)},
        {"harness.point_s_p75", quantile(pointS, 0.75)},
        {"harness.share", share("harness")},
        {"trace_overhead_frac",
         ratio(median(tracedWall), median(untracedWall)) - 1.0},
        {"trace_unaccounted_frac", unaccounted},
        {"host.speed", median(speeds)},
        {"host.raw_kips", median(rawKips)},
    };
    return rep;
}

} // namespace perfbench
