#include "harness/bench_report.hh"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "common/hires_timer.hh"
#include "harness/metrics.hh"
#include "harness/sweep.hh"
#include "replay/trace_store.hh"
#include "workloads/workloads.hh"

namespace tproc::harness
{

namespace
{

/** One measured pass: deterministic stats + the best wall time of the
 *  reps, plus whether the stats were bit-identical across reps. */
struct Timed
{
    ProcessorStats stats;
    double wall = 0.0;
    bool stable = true;

    /** Telemetry from the first rep (disabled unless the point sampled;
     *  reps are bit-identical, so one series represents them all). */
    IntervalSeries series;
};

Timed
bestOf(const SweepPoint &p, int reps)
{
    Timed t;
    StatDict ref;
    for (int rep = 0; rep < std::max(reps, 1); ++rep) {
        SweepResult r = SweepEngine::runPoint(p);
        if (!r.ok) {
            throw std::runtime_error("bench point " + p.label() +
                                     " failed: " + r.error);
        }
        StatDict d = statsToDict(r.stats);
        if (rep == 0) {
            t.stats = r.stats;
            t.wall = r.wallSeconds;
            t.series = std::move(r.series);
            ref = std::move(d);
        } else {
            if (d != ref)
                t.stable = false;
            t.wall = std::min(t.wall, r.wallSeconds);
        }
    }
    return t;
}

/** Point-by-point equality of two passes over one batch: both ok and
 *  every counter identical. */
bool
sameStats(const std::vector<SweepResult> &a,
          const std::vector<SweepResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].ok != b[i].ok ||
            statsToDict(a[i].stats) != statsToDict(b[i].stats)) {
            return false;
        }
    }
    return true;
}

JsonValue
num(double v)
{
    return JsonValue::makeNumber(v);
}

/** Throughput guarded against a zero wall clock (absurdly fast runs on
 *  coarse timers must not put inf/nan into the artifact). */
double
rate(double count, double seconds)
{
    return seconds > 0.0 ? count / seconds : 0.0;
}

const std::vector<std::string> &
timingKeys()
{
    static const std::vector<std::string> keys = {
        "wall_seconds",  "cycles_per_sec",     "insts_per_sec",
        "live_seconds",  "cold_seconds",       "warm_seconds",
        "speedup",       "total_wall_seconds", "baseline",
        "host",          "phases",             "sweep",
    };
    return keys;
}

bool
isTimingKey(const std::string &key)
{
    const auto &keys = timingKeys();
    return std::find(keys.begin(), keys.end(), key) != keys.end();
}

JsonValue
stripTiming(const JsonValue &v)
{
    switch (v.kind()) {
      case JsonValue::Kind::Object: {
        JsonValue out = JsonValue::makeObject();
        for (const auto &[key, member] : v.asObject()) {
            if (!isTimingKey(key))
                out.set(key, stripTiming(member));
        }
        return out;
      }
      case JsonValue::Kind::Array: {
        JsonValue out = JsonValue::makeArray();
        for (const auto &elem : v.asArray())
            out.push(stripTiming(elem));
        return out;
      }
      default:
        return v;
    }
}

void
diffValues(const JsonValue &a, const JsonValue &b, const std::string &path,
           std::vector<std::string> &out)
{
    auto kindName = [](JsonValue::Kind k) -> const char * {
        switch (k) {
          case JsonValue::Kind::Null: return "null";
          case JsonValue::Kind::Bool: return "bool";
          case JsonValue::Kind::Number: return "number";
          case JsonValue::Kind::String: return "string";
          case JsonValue::Kind::Array: return "array";
          case JsonValue::Kind::Object: return "object";
        }
        return "?";
    };
    if (a.kind() != b.kind()) {
        out.push_back(path + ": kind " + kindName(a.kind()) + " vs " +
                      kindName(b.kind()));
        return;
    }
    switch (a.kind()) {
      case JsonValue::Kind::Null:
        return;
      case JsonValue::Kind::Bool:
        if (a.asBool() != b.asBool()) {
            out.push_back(path + ": " + (a.asBool() ? "true" : "false") +
                          " vs " + (b.asBool() ? "true" : "false"));
        }
        return;
      case JsonValue::Kind::Number:
        if (a.asNumber() != b.asNumber()) {
            out.push_back(path + ": " + jsonNumber(a.asNumber()) + " vs " +
                          jsonNumber(b.asNumber()));
        }
        return;
      case JsonValue::Kind::String:
        if (a.asString() != b.asString()) {
            out.push_back(path + ": \"" + a.asString() + "\" vs \"" +
                          b.asString() + "\"");
        }
        return;
      case JsonValue::Kind::Array: {
        const auto &aa = a.asArray();
        const auto &ba = b.asArray();
        if (aa.size() != ba.size()) {
            out.push_back(path + ": array length " +
                          std::to_string(aa.size()) + " vs " +
                          std::to_string(ba.size()));
            return;
        }
        for (size_t i = 0; i < aa.size(); ++i) {
            diffValues(aa[i], ba[i],
                       path + "[" + std::to_string(i) + "]", out);
        }
        return;
      }
      case JsonValue::Kind::Object: {
        // Keys match by name: a key on one side only is reported at its
        // own path, and every shared key is still compared.
        std::vector<std::string> a_shared, b_shared;
        for (const auto &[key, member] : a.asObject()) {
            if (const JsonValue *other = b.find(key)) {
                a_shared.push_back(key);
                diffValues(member, *other, path + "." + key, out);
            } else {
                out.push_back(path + "." + key + ": present vs missing");
            }
        }
        for (const auto &entry : b.asObject()) {
            const std::string &key = entry.first;
            if (a.find(key))
                b_shared.push_back(key);
            else
                out.push_back(path + "." + key + ": missing vs present");
        }
        if (a_shared != b_shared)
            out.push_back(path + ": key order differs");
        return;
      }
    }
}

} // namespace

JsonValue
runBenchReport(const BenchReportOptions &opts, std::ostream *progress,
               JsonValue *metricsDoc)
{
    auto say = [&](const std::string &line) {
        if (progress)
            *progress << line << '\n';
    };
    const std::vector<std::string> names = workloadNames();
    if (names.empty())
        throw std::runtime_error("no workloads registered");

    // Phase attribution is scoped to this run: diff the global
    // registry around it so an earlier run in the same process (e.g. a
    // --check baseline pass) does not bleed in.
    const std::vector<PhaseStat> phases_before =
        PhaseTimers::global().snapshot();

    auto makePoint = [&](const std::string &workload) {
        SweepPoint p;
        p.workload = workload;
        p.model = opts.model;
        p.seed = opts.seed;
        p.maxInsts = opts.insts;
        p.verify = opts.verify;
        p.metricsInterval = opts.metricsInterval;
        return p;
    };

    // Aggregate counters flow through the typed handle API: resolved
    // once here, bumped per workload without re-hashing the name.
    StatDict agg;
    StatDict::Counter aggCycles = agg.counter("total_cycles");
    StatDict::Counter aggInsts = agg.counter("total_retired_insts");

    // Live pass: every golden workload from scratch, best of reps.
    JsonValue workloads = JsonValue::makeArray();
    std::vector<Timed> live(names.size());
    std::vector<SweepResult> live_results;
    double live_total_s = 0.0;
    bool stats_stable = true;
    for (size_t i = 0; i < names.size(); ++i) {
        say("  live " + names[i] + " (" + std::to_string(opts.reps) +
            " reps)...");
        live[i] = bestOf(makePoint(names[i]), opts.reps);
        stats_stable = stats_stable && live[i].stable;
        if (opts.metricsInterval > 0) {
            SweepResult lr;
            lr.point = makePoint(names[i]);
            lr.point.index = i;
            lr.ok = true;
            lr.stats = live[i].stats;
            lr.series = live[i].series;
            live_results.push_back(std::move(lr));
        }
        const auto &s = live[i].stats;
        aggCycles += static_cast<double>(s.cycles);
        aggInsts += static_cast<double>(s.retiredInsts);
        live_total_s += live[i].wall;
        JsonValue w = JsonValue::makeObject();
        w.set("name", JsonValue::makeString(names[i]));
        w.set("cycles", num(static_cast<double>(s.cycles)));
        w.set("retired_insts", num(static_cast<double>(s.retiredInsts)));
        w.set("ipc", num(s.cycles ? static_cast<double>(s.retiredInsts) /
                                        static_cast<double>(s.cycles)
                                  : 0.0));
        w.set("wall_seconds", num(live[i].wall));
        w.set("cycles_per_sec",
              num(rate(static_cast<double>(s.cycles), live[i].wall)));
        w.set("insts_per_sec",
              num(rate(static_cast<double>(s.retiredInsts), live[i].wall)));
        workloads.push(std::move(w));
    }

    // The sweep batch: every workload on base and FG+MLB-RET, tiled 4x
    // so 64 points amortize thread startup and scheduler noise at small
    // instruction counts. It runs serially, across hardware-concurrency
    // workers, and replayed from traces cold (the first point on each
    // workload captures it) and warm. 8 points share each trace, as in
    // a real sweep; one point per trace could never repay its capture.
    const std::vector<SweepPoint> grid =
        crossPoints(names, {"base", "FG+MLB-RET"}, opts.seed, opts.insts,
                    opts.verify);
    std::vector<SweepPoint> batch;
    for (int tile = 0; tile < 4; ++tile)
        batch.insert(batch.end(), grid.begin(), grid.end());
    for (size_t i = 0; i < batch.size(); ++i)
        batch[i].index = i;

    const replay::TempTraceDir trace_dir("tproc_bench");
    std::vector<SweepPoint> replay_batch = batch;
    for (SweepPoint &p : replay_batch)
        p.traceDir = trace_dir.path();

    SweepEngine::Options serial_opts;
    serial_opts.threads = 1;
    SweepEngine serial(serial_opts);
    SweepEngine parallel;
    const unsigned threads = parallel.effectiveThreads(batch.size());
    auto timedRun = [](SweepEngine &engine,
                       const std::vector<SweepPoint> &points,
                       double &seconds) {
        HiresTimer t;
        std::vector<SweepResult> results = engine.run(points);
        seconds = t.seconds();
        return results;
    };

    double serial_s = 0.0, parallel_s = 0.0, cold_s = 0.0, warm_s = 0.0;
    say("  sweep batch: " + std::to_string(batch.size()) +
        " points, serial...");
    const auto serial_results = timedRun(serial, batch, serial_s);
    for (const SweepResult &r : serial_results) {
        if (!r.ok) {
            throw std::runtime_error("bench point " + r.point.label() +
                                     " failed: " + r.error);
        }
    }
    say("  sweep batch: parallel (" + std::to_string(threads) +
        " threads)...");
    const auto parallel_results = timedRun(parallel, batch, parallel_s);
    say("  sweep batch: replay, cold (captures traces)...");
    const auto cold_results = timedRun(parallel, replay_batch, cold_s);
    say("  sweep batch: replay, warm...");
    const auto warm_results = timedRun(parallel, replay_batch, warm_s);

    // The engine's determinism contract: identical per-point stats
    // whatever the worker count, live or replayed.
    stats_stable = stats_stable && sameStats(serial_results,
                                             parallel_results);
    const bool replay_identical = sameStats(serial_results, cold_results) &&
        sameStats(serial_results, warm_results);

    JsonValue sweep = JsonValue::makeObject();
    sweep.set("points", num(static_cast<double>(batch.size())));
    sweep.set("threads", num(threads));
    sweep.set("serial_seconds", num(serial_s));
    sweep.set("parallel_seconds", num(parallel_s));
    sweep.set("speedup", num(rate(serial_s, parallel_s)));

    JsonValue replay = JsonValue::makeObject();
    replay.set("workloads", num(static_cast<double>(names.size())));
    replay.set("live_seconds", num(parallel_s));
    replay.set("cold_seconds", num(cold_s));
    replay.set("warm_seconds", num(warm_s));
    replay.set("speedup", num(rate(parallel_s, warm_s)));
    replay.set("identical", JsonValue::makeBool(replay_identical));

    // Trace-container accounting: how far the codec shrinks each
    // program in the traces the replay passes ran off. A trace holds
    // no step stream, so these bytes do not depend on opts.insts. They
    // are deterministic — capture is — so they live in the non-timing
    // view.
    say("  trace compression probe...");
    JsonValue compression = JsonValue::makeArray();
    replay::TraceStore store(trace_dir.path());
    for (const auto &name : names) {
        const auto ensured = store.ensure(name, opts.seed, 1.0, opts.insts);
        for (const replay::ChunkStat &c : ensured.reader->info().chunkStats) {
            if (c.type != replay::ChunkType::PROGZ)
                continue;
            JsonValue e = JsonValue::makeObject();
            e.set("workload", JsonValue::makeString(name));
            e.set("stored_bytes", num(static_cast<double>(c.storedBytes)));
            e.set("plain_bytes", num(static_cast<double>(c.plainBytes)));
            e.set("ratio", num(static_cast<double>(c.plainBytes) /
                               static_cast<double>(c.storedBytes)));
            compression.push(std::move(e));
        }
    }

    JsonValue report = JsonValue::makeObject();
    report.set("schema", JsonValue::makeString("tproc-bench-report-v1"));
    report.set("bench_index", num(opts.benchIndex));

    JsonValue config = JsonValue::makeObject();
    config.set("insts", num(static_cast<double>(opts.insts)));
    config.set("seed", num(static_cast<double>(opts.seed)));
    config.set("model", JsonValue::makeString(opts.model));
    config.set("reps", num(opts.reps));
    config.set("verify", JsonValue::makeBool(opts.verify));
    report.set("config", std::move(config));

    JsonValue host = JsonValue::makeObject();
    host.set("hardware_concurrency",
             num(std::thread::hardware_concurrency()));
    report.set("host", std::move(host));

    report.set("workloads", std::move(workloads));
    report.set("sweep", std::move(sweep));
    report.set("replay", std::move(replay));
    report.set("trace_compression", std::move(compression));

    JsonValue summary = JsonValue::makeObject();
    summary.set("workloads", num(static_cast<double>(names.size())));
    summary.set("total_cycles", num(aggCycles.value()));
    summary.set("total_retired_insts", num(aggInsts.value()));
    summary.set("total_wall_seconds", num(live_total_s));
    summary.set("cycles_per_sec", num(rate(aggCycles.value(),
                                           live_total_s)));
    summary.set("insts_per_sec", num(rate(aggInsts.value(),
                                          live_total_s)));
    report.set("summary", std::move(summary));

    JsonValue identity = JsonValue::makeObject();
    identity.set("stats_stable_across_reps",
                 JsonValue::makeBool(stats_stable));
    identity.set("replay_identical",
                 JsonValue::makeBool(replay_identical));
    report.set("identity", std::move(identity));

    // Where this run's wall clock went. "phases" is on the timing
    // denylist: host-dependent attribution, never part of the
    // non-timing identity CI gates on.
    const std::vector<PhaseStat> phase_diff = PhaseTimers::diff(
        PhaseTimers::global().snapshot(), phases_before);
    JsonValue phases = JsonValue::makeArray();
    for (const auto &ph : phase_diff) {
        JsonValue p = JsonValue::makeObject();
        p.set("name", JsonValue::makeString(ph.name));
        p.set("seconds", num(ph.seconds));
        p.set("count", num(static_cast<double>(ph.count)));
        phases.push(std::move(p));
    }
    report.set("phases", std::move(phases));

    if (metricsDoc && opts.metricsInterval > 0) {
        *metricsDoc = buildMetricsDoc(opts.metricsInterval, live_results,
                                      phase_diff);
    }

    return report;
}

JsonValue
benchNonTimingView(const JsonValue &report)
{
    return stripTiming(report);
}

std::vector<std::string>
diffBenchReports(const JsonValue &a, const JsonValue &b)
{
    std::vector<std::string> out;
    diffValues(stripTiming(a), stripTiming(b), "$", out);
    return out;
}

BenchReportOptions
optionsFromReport(const JsonValue &report)
{
    // The integers accept what the matching tproc-bench flags accept.
    const JsonValue &config = report.at("config");
    BenchReportOptions opts;
    opts.insts = checkedU64(config.at("insts").asNumber(), "insts");
    opts.seed = checkedU64(config.at("seed").asNumber(), "seed");
    opts.model = config.at("model").asString();
    const uint64_t reps = checkedU64(config.at("reps").asNumber(), "reps");
    if (reps < 1 || reps > uint64_t{INT_MAX}) {
        throw std::runtime_error("'reps' is " + std::to_string(reps) +
                                 ", not a count from 1 to " +
                                 std::to_string(INT_MAX));
    }
    opts.reps = static_cast<int>(reps);
    opts.verify = config.at("verify").asBool();
    const uint64_t index =
        checkedU64(report.at("bench_index").asNumber(), "bench_index");
    if (index > UINT32_MAX) {
        throw std::runtime_error("'bench_index' is " +
                                 std::to_string(index) +
                                 ", beyond 32 bits");
    }
    opts.benchIndex = static_cast<unsigned>(index);
    return opts;
}

void
attachBaseline(JsonValue &report, const JsonValue &baselineReport,
               const std::string &label)
{
    const JsonValue &base = baselineReport.at("summary");
    const JsonValue &mine = report.at("summary");
    const double base_cps = base.at("cycles_per_sec").asNumber();
    const double base_ips = base.at("insts_per_sec").asNumber();
    JsonValue b = JsonValue::makeObject();
    b.set("label", JsonValue::makeString(label));
    b.set("cycles_per_sec", num(base_cps));
    b.set("insts_per_sec", num(base_ips));
    b.set("speedup_cycles_per_sec",
          num(rate(mine.at("cycles_per_sec").asNumber(), base_cps)));
    b.set("speedup_insts_per_sec",
          num(rate(mine.at("insts_per_sec").asNumber(), base_ips)));
    report.set("baseline", std::move(b));
}

} // namespace tproc::harness
