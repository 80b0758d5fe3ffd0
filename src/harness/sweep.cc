#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/hires_timer.hh"
#include "common/logging.hh"
#include "core/runner.hh"
#include "replay/replay_source.hh"
#include "replay/trace_store.hh"
#include "workloads/workloads.hh"

namespace tproc::harness
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
}

std::string
fmtSeconds(double s)
{
    char buf[32];
    if (s >= 90.0) {
        long total = static_cast<long>(s + 0.5);
        std::snprintf(buf, sizeof(buf), "%ldm%02lds", total / 60,
                      total % 60);
    } else {
        std::snprintf(buf, sizeof(buf), "%.1fs", s);
    }
    return buf;
}

/**
 * An integer field of a result document. The writers print uint64_t
 * values, which parse to doubles; anything negative, fractional,
 * non-finite or beyond 64 bits is a damaged document, not a value to
 * cast (the cast is undefined out of range).
 */
uint64_t
checkedU64(double v, const char *what)
{
    // UINT64_MAX (a point's "no limit") prints as 18446744073709551615,
    // which rounds to 2^64 as a double.
    constexpr double two64 = 18446744073709551616.0;
    if (!(v >= 0.0) || v > two64 || v != std::floor(v)) {
        throw std::runtime_error(std::string("'") + what + "' is " +
                                 jsonNumber(v) +
                                 ", not an unsigned 64-bit integer");
    }
    return v == two64 ? UINT64_MAX : static_cast<uint64_t>(v);
}

} // namespace

std::string
SweepPoint::label() const
{
    if (!labelOverride.empty())
        return labelOverride;
    return workload + "/" + (useConfig ? "<config>" : model);
}

StatDict
statsToDict(const ProcessorStats &s)
{
    // ProcessorStats is 39 uint64_t counters, each mirrored below. The
    // assert trips when a counter is added so it cannot silently escape
    // the JSON export, the merge, or the serial-vs-parallel identity
    // checks that compare through this dict.
    static_assert(sizeof(ProcessorStats) == 39 * sizeof(uint64_t),
                  "ProcessorStats changed: update statsToDict");
    StatDict d;
    d.set("cycles", s.cycles);
    d.set("retiredInsts", s.retiredInsts);
    d.set("retiredTraces", s.retiredTraces);
    d.set("retiredTraceLenSum", s.retiredTraceLenSum);
    d.set("dispatchedTraces", s.dispatchedTraces);
    d.set("squashedTraces", s.squashedTraces);
    d.set("squashedInsts", s.squashedInsts);
    d.set("mispEvents", s.mispEvents);
    d.set("condMispEvents", s.condMispEvents);
    d.set("indirectMispEvents", s.indirectMispEvents);
    d.set("recoveriesFgci", s.recoveriesFgci);
    d.set("recoveriesCgci", s.recoveriesCgci);
    d.set("recoveriesFull", s.recoveriesFull);
    d.set("cgciReconverged", s.cgciReconverged);
    d.set("cgciAbandoned", s.cgciAbandoned);
    d.set("tracesPreserved", s.tracesPreserved);
    d.set("redispatchedTraces", s.redispatchedTraces);
    d.set("reissuedSlots", s.reissuedSlots);
    d.set("reissueLocal", s.reissueLocal);
    d.set("reissueGlobal", s.reissueGlobal);
    d.set("reissueViol", s.reissueViol);
    d.set("reissueRedisp", s.reissueRedisp);
    d.set("loadViolations", s.loadViolations);
    d.set("insertActiveCycles", s.insertActiveCycles);
    d.set("dispatchBlockedCycles", s.dispatchBlockedCycles);
    d.set("fetchStallCycles", s.fetchStallCycles);
    d.set("retiredCondBranches", s.retiredCondBranches);
    d.set("retiredBranchMisps", s.retiredBranchMisps);
    d.set("tcLookups", s.tcLookups);
    d.set("tcMisses", s.tcMisses);
    d.set("icAccesses", s.icAccesses);
    d.set("icMisses", s.icMisses);
    d.set("dcAccesses", s.dcAccesses);
    d.set("dcMisses", s.dcMisses);
    d.set("bitLookups", s.bitLookups);
    d.set("bitMisses", s.bitMisses);
    d.set("tracePredictions", s.tracePredictions);
    d.set("fallbackFetches", s.fallbackFetches);
    d.set("constructions", s.constructions);
    return d;
}

ProcessorStats
statsFromDict(const StatDict &d)
{
    static_assert(sizeof(ProcessorStats) == 39 * sizeof(uint64_t),
                  "ProcessorStats changed: update statsFromDict");
    auto u64 = [&d](const char *name) {
        // A truncated or cross-version artifact must surface as an
        // error, not merge in as silent zeros.
        if (!d.has(name)) {
            throw std::runtime_error(
                std::string("stats dict is missing counter '") + name +
                "'");
        }
        return checkedU64(d.get(name), name);
    };
    ProcessorStats s;
    s.cycles = u64("cycles");
    s.retiredInsts = u64("retiredInsts");
    s.retiredTraces = u64("retiredTraces");
    s.retiredTraceLenSum = u64("retiredTraceLenSum");
    s.dispatchedTraces = u64("dispatchedTraces");
    s.squashedTraces = u64("squashedTraces");
    s.squashedInsts = u64("squashedInsts");
    s.mispEvents = u64("mispEvents");
    s.condMispEvents = u64("condMispEvents");
    s.indirectMispEvents = u64("indirectMispEvents");
    s.recoveriesFgci = u64("recoveriesFgci");
    s.recoveriesCgci = u64("recoveriesCgci");
    s.recoveriesFull = u64("recoveriesFull");
    s.cgciReconverged = u64("cgciReconverged");
    s.cgciAbandoned = u64("cgciAbandoned");
    s.tracesPreserved = u64("tracesPreserved");
    s.redispatchedTraces = u64("redispatchedTraces");
    s.reissuedSlots = u64("reissuedSlots");
    s.reissueLocal = u64("reissueLocal");
    s.reissueGlobal = u64("reissueGlobal");
    s.reissueViol = u64("reissueViol");
    s.reissueRedisp = u64("reissueRedisp");
    s.loadViolations = u64("loadViolations");
    s.insertActiveCycles = u64("insertActiveCycles");
    s.dispatchBlockedCycles = u64("dispatchBlockedCycles");
    s.fetchStallCycles = u64("fetchStallCycles");
    s.retiredCondBranches = u64("retiredCondBranches");
    s.retiredBranchMisps = u64("retiredBranchMisps");
    s.tcLookups = u64("tcLookups");
    s.tcMisses = u64("tcMisses");
    s.icAccesses = u64("icAccesses");
    s.icMisses = u64("icMisses");
    s.dcAccesses = u64("dcAccesses");
    s.dcMisses = u64("dcMisses");
    s.bitLookups = u64("bitLookups");
    s.bitMisses = u64("bitMisses");
    s.tracePredictions = u64("tracePredictions");
    s.fallbackFetches = u64("fallbackFetches");
    s.constructions = u64("constructions");
    return s;
}

StatDict
mergeResults(const std::vector<SweepResult> &results)
{
    StatDict merged;
    for (const auto &r : results) {
        if (r.ok)
            merged.merge(statsToDict(r.stats));
    }
    return merged;
}

void
writeResultObject(std::ostream &os, const SweepResult &r, int indent)
{
    const std::string pad(indent, ' ');
    const std::string in(indent + 2, ' ');
    os << pad << "{\n"
       << in << "\"index\": " << r.point.index << ",\n"
       << in << "\"workload\": \"" << jsonEscape(r.point.workload)
       << "\",\n"
       << in << "\"model\": \""
       << jsonEscape(r.point.useConfig ? "<config>" : r.point.model)
       << "\",\n"
       << in << "\"label\": \"" << jsonEscape(r.point.label()) << "\",\n"
       << in << "\"seed\": " << r.point.seed << ",\n"
       << in << "\"max_insts\": " << r.point.maxInsts << ",\n"
       << in << "\"ok\": " << (r.ok ? "true" : "false") << ",\n"
       << in << "\"error\": \"" << jsonEscape(r.error) << "\",\n"
       << in << "\"ipc\": " << jsonNumber(r.stats.ipc()) << ",\n"
       << in << "\"stats\": ";
    statsToDict(r.stats).writeJson(os, indent + 2);
    os << "\n" << pad << "}";
}

namespace
{

/** The inverse of writeResultObject. Throws std::runtime_error. */
SweepResult
resultFromJson(const JsonValue &v)
{
    SweepResult r;
    r.point.index = checkedU64(v.at("index").asNumber(), "index");
    r.point.workload = v.at("workload").asString();
    r.point.model = v.at("model").asString();
    r.point.seed = checkedU64(v.at("seed").asNumber(), "seed");
    r.point.maxInsts = checkedU64(v.at("max_insts").asNumber(), "max_insts");
    // label() of a reread point must reproduce the original label even
    // for <config> points, so carry it verbatim.
    r.point.labelOverride = v.at("label").asString();
    r.ok = v.at("ok").asBool();
    r.error = v.at("error").asString();
    r.stats = statsFromDict(statDictFromJson(v.at("stats")));
    return r;
}

} // namespace

std::vector<SweepResult>
readResultsJson(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    const JsonValue doc = parseJson(buf.str());
    std::vector<SweepResult> results;
    for (const auto &v : doc.at("points").asArray())
        results.push_back(resultFromJson(v));
    return results;
}

void
writeMergedJson(std::ostream &os, std::vector<SweepResult> results)
{
    auto merge_phase = PhaseTimers::global().scope("merge");
    std::sort(results.begin(), results.end(),
              [](const SweepResult &a, const SweepResult &b) {
                  return a.point.index < b.point.index;
              });
    size_t failed = 0;
    for (const auto &r : results)
        failed += r.ok ? 0 : 1;
    StatDict merged = mergeResults(results);

    os << "{\n"
       << "  \"total_points\": " << results.size() << ",\n"
       << "  \"ok_points\": " << results.size() - failed << ",\n"
       << "  \"failed_points\": " << failed << ",\n"
       << "  \"merged\": ";
    merged.writeJson(os, 2);
    os << ",\n  \"points\": [";
    for (size_t i = 0; i < results.size(); ++i) {
        os << (i ? "," : "") << "\n";
        writeResultObject(os, results[i], 4);
    }
    if (!results.empty())
        os << "\n  ";
    os << "]\n}\n";
}

std::vector<SweepPoint>
crossPoints(const std::vector<std::string> &workloads,
            const std::vector<std::string> &models, uint64_t seed,
            uint64_t max_insts, bool verify)
{
    std::vector<SweepPoint> points;
    points.reserve(workloads.size() * models.size());
    for (const auto &w : workloads) {
        for (const auto &m : models) {
            SweepPoint p;
            p.workload = w;
            p.model = m;
            p.seed = seed;
            p.maxInsts = max_insts;
            p.verify = verify;
            p.index = points.size();
            points.push_back(std::move(p));
        }
    }
    return points;
}

std::vector<SweepPoint>
shardPoints(const std::vector<SweepPoint> &points, unsigned shard,
            unsigned count)
{
    if (count == 0 || shard >= count) {
        throw std::invalid_argument("shardPoints: need shard < count, "
                                    "got " + std::to_string(shard) + "/" +
                                    std::to_string(count));
    }
    std::vector<SweepPoint> slice;
    slice.reserve(points.size() / count + 1);
    for (size_t i = 0; i < points.size(); ++i) {
        if (i % count == shard)
            slice.push_back(points[i]);
    }
    return slice;
}

SweepResult
SweepEngine::runPoint(const SweepPoint &p)
{
    SweepResult r;
    r.point = p;
    auto t0 = std::chrono::steady_clock::now();
    try {
        ScopedErrorCapture capture;
        ProcessorConfig cfg;
        if (p.useConfig) {
            cfg = p.config;
        } else {
            cfg = ProcessorConfig::forModel(p.model);
            cfg.verifyRetirement = p.verify;
            cfg.metricsInterval = p.metricsInterval;
        }
        // Watchdog errors carry the point identity so a stalled point
        // is attributable straight from the structured error.
        cfg.identity = "workload=" + p.workload +
            " seed=" + std::to_string(p.seed) +
            " model=" + (p.useConfig ? p.label() : p.model);
        RunMetrics run_metrics;
        RunMetrics *metrics_out =
            cfg.metricsInterval > 0 ? &run_metrics : nullptr;
        if (!p.traceDir.empty()) {
            // Replay mode: the trace file supplies both the program
            // and the architectural stream; the timing simulation
            // itself is identical to a live run.
            replay::TraceStore store(p.traceDir);
            auto ensured =
                store.ensure(p.workload, p.seed, p.scale, p.maxInsts);
            std::unique_ptr<ArchSource> golden;
            if (cfg.verifyRetirement) {
                golden = std::make_unique<replay::ReplaySource>(
                    ensured.reader);
            }
            r.stats = runConfig(ensured.reader->program(), cfg,
                                p.maxInsts, std::move(golden),
                                metrics_out);
        } else {
            Workload w = makeWorkload(p.workload, p.seed, p.scale);
            r.stats = runConfig(w.program, cfg, p.maxInsts, nullptr,
                                metrics_out);
        }
        if (metrics_out)
            r.series = std::move(run_metrics.series);
        r.ok = true;
    } catch (const std::exception &e) {
        r.error = e.what();
    } catch (...) {
        r.error = "unknown error";
    }
    r.wallSeconds = secondsSince(t0);
    return r;
}

unsigned
SweepEngine::effectiveThreads(size_t n) const
{
    unsigned t = opts.threads ? opts.threads
                              : std::thread::hardware_concurrency();
    if (t == 0)
        t = 1;
    if (n < t)
        t = static_cast<unsigned>(n);
    return t ? t : 1;
}

std::vector<SweepResult>
SweepEngine::run(const std::vector<SweepPoint> &points)
{
    std::vector<SweepResult> results(points.size());
    if (points.empty())
        return results;

    const unsigned nthreads = effectiveThreads(points.size());
    std::ostream &prog =
        opts.progressStream ? *opts.progressStream : std::cerr;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex reportMutex;
    auto t0 = std::chrono::steady_clock::now();

    auto worker = [&]() {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= points.size())
                return;
            results[i] = runPoint(points[i]);
            size_t d = done.fetch_add(1) + 1;
            if (opts.progress || opts.onResult) {
                std::lock_guard<std::mutex> lock(reportMutex);
                if (opts.onResult)
                    opts.onResult(results[i]);
                if (opts.progress) {
                    double elapsed = secondsSince(t0);
                    double eta = elapsed / d *
                                 static_cast<double>(points.size() - d);
                    prog << "  [" << d << "/" << points.size() << "] "
                         << results[i].point.label() << ": "
                         << (results[i].ok
                                 ? "ipc=" +
                                       fmtDouble(results[i].stats.ipc(), 3)
                                 : "FAILED (" + results[i].error + ")")
                         << "  " << fmtSeconds(results[i].wallSeconds)
                         << "  elapsed " << fmtSeconds(elapsed) << "  eta "
                         << fmtSeconds(eta) << '\n';
                }
            }
        }
    };

    if (nthreads == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(nthreads);
        for (unsigned t = 0; t < nthreads; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    return results;
}

} // namespace tproc::harness
