/**
 * @file
 * tproc-sweep: batch simulation CLI. Fans (workload x model) points
 * across worker threads via the harness SweepEngine, prints a result
 * table, and optionally writes the full per-point stats as JSON.
 *
 * Usage:
 *   tproc-sweep [--workloads=a,b,...] [--models=a,b,...] [--insts=N]
 *               [--seed=S] [--threads=T] [--json=FILE]
 *               [--trace-dir=DIR] [--golden=DIR] [--write-golden=DIR]
 *               [--metrics-json=FILE] [--metrics-interval=N]
 *               [--no-verify] [--quiet] [--generate=N]
 *               [--pattern-mix=SPEC]
 *
 * --generate=N swaps the workload list for N generated synthetic
 * workloads "gen:<mix>:<0..N-1>" (src/workloads/generator.hh): the mix
 * comes from --pattern-mix (default "all"), the data seed from --seed.
 * Generated points are ordinary SweepPoints — identity is the name
 * plus seed — so they compose with --trace-dir/--golden/--metrics-json
 * unchanged, and two runs with the same flags are bit-identical.
 *
 * An unknown workload name, generator pattern, pattern-mix spec or
 * model, or an empty --workloads or --models list, is reported with
 * the valid names and exits 2 (the usage convention of every tool in
 * docs/cli.md).
 *
 * --threads fans points across engine workers; each simulation runs
 * on one of them, and stats are bit-identical for every worker count.
 *
 * --trace-dir=DIR runs every point in capture-once/replay-many mode:
 * the first point to touch a workload records its architectural trace
 * into DIR, all others replay the file (bit-identical stats by
 * contract). --golden=DIR compares each point's stats against the
 * checked-in snapshot DIR/<workload>__<model>.json and fails on any
 * counter drift; --write-golden=DIR (re)generates the snapshots when a
 * behavioural change is intentional.
 *
 * --json=FILE writes the canonical result document: every point's
 * identity, outcome and stats, sorted by grid index, plus their sum.
 * It is byte-identical for every --threads.
 *
 * --metrics-json=FILE writes a tproc-metrics-v1 telemetry document
 * (per-point interval series + phase wall-time attribution — see
 * docs/metrics.md) and implies --metrics-interval=4096 unless one is
 * given. Sampling is a pure observer: stats, result documents and
 * golden comparisons are bit-identical with it on or off.
 *
 * Defaults: all eight workloads, models base + FG+MLB-RET, 400000
 * instructions, seed 1, hardware-concurrency threads, progress on.
 * Exit status is the number of failed points (capped at 125); 126
 * flags an artifact error. Every usage error exits 2 before any point
 * runs (the usage convention of docs/cli.md): an unknown argument, a
 * malformed number, a zero --insts, --generate or --metrics-interval,
 * a --generate above the grid bound, an unknown name, an empty list,
 * or an unwritable --json or --metrics-json destination.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <filesystem>

#include "common/hires_timer.hh"
#include "common/stats.hh"
#include "core/config.hh"
#include "core/runner.hh"
#include "harness/golden.hh"
#include "harness/metrics.hh"
#include "harness/sweep.hh"
#include "tools/cli.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

using namespace tproc;
using cli::parseArg;
using cli::splitList;

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: tproc-sweep [--workloads=a,b,...] [--models=a,b,...]\n"
          "                   [--insts=N] [--seed=S] [--threads=T]\n"
          "                   [--json=FILE] [--trace-dir=DIR]\n"
          "                   [--golden=DIR] [--write-golden=DIR]\n"
          "                   [--metrics-json=FILE] "
          "[--metrics-interval=N]\n"
          "                   [--no-verify] [--quiet]\n"
          "                   [--generate=N] [--pattern-mix=SPEC]\n";
}

/** Failed-point recap so CI logs show what broke without scrollback. */
int
printFailureSummary(const std::vector<harness::SweepResult> &results)
{
    int failed = 0;
    for (const auto &r : results)
        failed += r.ok ? 0 : 1;
    if (!failed)
        return 0;
    std::cerr << "\ntproc-sweep: " << failed << " of " << results.size()
              << " points failed";
    std::cerr << ":\n";
    for (const auto &r : results) {
        if (r.ok)
            continue;
        std::cerr << "  point " << r.point.index << " "
                  << r.point.label() << " (seed " << r.point.seed
                  << "): " << r.error << '\n';
    }
    return failed;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> workloads = workloadNames();
    std::vector<std::string> models = {"base", "FG+MLB-RET"};
    uint64_t insts = 400000;
    uint64_t seed = 1;
    unsigned threads = 0;
    bool verify = true;
    bool quiet = false;
    std::string json_path;
    std::string trace_dir;
    std::string golden_dir;
    std::string write_golden_dir;
    std::string metrics_path;
    uint64_t metrics_interval = 0;
    uint64_t generate = 0;
    std::string pattern_mix = "all";

    auto badNumber = [](const char *flag, const std::string &v) {
        std::cerr << "tproc-sweep: bad " << flag << " '" << v
                  << "' (want a decimal number)\n";
        usage(std::cerr);
        return 2;
    };

    for (int i = 1; i < argc; ++i) {
        std::string v;
        if (parseArg(argv[i], "--workloads", v)) {
            workloads = splitList(v);
        } else if (parseArg(argv[i], "--models", v)) {
            models = splitList(v);
        } else if (parseArg(argv[i], "--insts", v)) {
            // A 0-instruction run measures nothing yet passes every
            // gate.
            if (!cli::parseU64(v, insts) || insts == 0)
                return badNumber("--insts", v);
        } else if (parseArg(argv[i], "--seed", v)) {
            if (!cli::parseU64(v, seed))
                return badNumber("--seed", v);
        } else if (parseArg(argv[i], "--threads", v)) {
            if (!cli::parseU32(v, threads))
                return badNumber("--threads", v);
        } else if (parseArg(argv[i], "--metrics-json", v)) {
            metrics_path = v;
        } else if (parseArg(argv[i], "--metrics-interval", v)) {
            if (!cli::parseU64(v, metrics_interval) ||
                metrics_interval == 0) {
                return badNumber("--metrics-interval", v);
            }
        } else if (parseArg(argv[i], "--json", v)) {
            json_path = v;
        } else if (parseArg(argv[i], "--trace-dir", v)) {
            trace_dir = v;
        } else if (parseArg(argv[i], "--golden", v)) {
            golden_dir = v;
        } else if (parseArg(argv[i], "--write-golden", v)) {
            write_golden_dir = v;
        } else if (parseArg(argv[i], "--generate", v)) {
            if (!cli::parseU64(v, generate) || generate == 0)
                return badNumber("--generate", v);
            if (generate > cli::maxCountFlag) {
                std::cerr << "tproc-sweep: --generate=" << generate
                          << " exceeds the grid bound "
                          << cli::maxCountFlag << '\n';
                usage(std::cerr);
                return 2;
            }
        } else if (parseArg(argv[i], "--pattern-mix", v)) {
            pattern_mix = v;
        } else if (std::strcmp(argv[i], "--no-verify") == 0) {
            verify = false;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "tproc-sweep: unknown argument '" << argv[i]
                      << "'\n";
            usage(std::cerr);
            return 2;
        }
    }

    // Unknown workload or pattern names are usage errors caught up
    // front — report the valid names and exit 2 (docs/cli.md), instead
    // of surfacing them as per-point fault-capture failures mid-sweep.
    try {
        parsePatternMix(pattern_mix);
        if (generate) {
            workloads.clear();
            for (uint64_t i = 0; i < generate; ++i)
                workloads.push_back(generatedName(pattern_mix, i));
        } else {
            // An empty list (`--workloads=` or only commas) names the
            // empty workload, which is unknown: a 0-point run would
            // pass any gate vacuously.
            if (workloads.empty())
                workloads.emplace_back();
            const auto known = workloadNames();
            for (const auto &w : workloads) {
                if (isGeneratedName(w)) {
                    validateGeneratedName(w);
                } else if (std::find(known.begin(), known.end(), w) ==
                           known.end()) {
                    // Throws the menu-listing UnknownWorkloadError.
                    (void)makeWorkload(w, 1, 1.0);
                }
            }
        }
    } catch (const UnknownWorkloadError &e) {
        std::cerr << "tproc-sweep: " << e.what() << '\n';
        usage(std::cerr);
        return 2;
    }

    // Model names get the same up-front validation: a typo'd --models
    // entry is a usage error before any point runs, not a per-point
    // fault mid-sweep, and an empty list names the empty model.
    if (models.empty())
        models.emplace_back();
    for (const std::string &m : models) {
        try {
            (void)ProcessorConfig::forModel(m);
        } catch (const ConfigError &e) {
            std::cerr << "tproc-sweep: " << e.what() << '\n';
            usage(std::cerr);
            return 2;
        }
    }

    // An unwritable result or telemetry destination is a usage error
    // up front (exit 2, the usage convention of docs/cli.md), not a
    // lost-results error after the sweep.
    if (!json_path.empty() && !cli::checkWritable(json_path)) {
        std::cerr << "tproc-sweep: cannot write --json path '" << json_path
                  << "'\n";
        usage(std::cerr);
        return 2;
    }
    if (!metrics_path.empty()) {
        if (!cli::checkWritable(metrics_path)) {
            std::cerr << "tproc-sweep: cannot write --metrics-json path '"
                      << metrics_path << "'\n";
            usage(std::cerr);
            return 2;
        }
        if (metrics_interval == 0)
            metrics_interval = 4096;
    }
    const std::vector<PhaseStat> phases_before =
        PhaseTimers::global().snapshot();

    auto points =
        harness::crossPoints(workloads, models, seed, insts, verify);
    // Replay mode is a per-point execution detail: indices, seeds, and
    // stats are identical to a live run.
    for (auto &p : points) {
        p.traceDir = trace_dir;
        p.metricsInterval = metrics_interval;
    }

    harness::SweepEngine::Options opts;
    opts.threads = threads;
    opts.progress = !quiet;
    harness::SweepEngine engine(opts);

    if (!quiet) {
        std::cerr << "sweep: " << points.size() << " points ("
                  << workloads.size() << " workloads x " << models.size()
                  << " models), " << engine.effectiveThreads(points.size())
                  << " threads, " << insts << " insts/point, seed "
                  << seed << (verify ? ", verified" : "") << "\n";
    }

    const auto results = engine.run(points);

    TextTable table;
    table.header({"point", "result"});
    for (const auto &r : results) {
        if (r.ok) {
            table.row({r.point.label(), statsSummaryLine(r.stats)});
        } else {
            table.row({r.point.label(), "FAILED: " + r.error});
        }
    }
    table.print(std::cout);

    int failed = printFailureSummary(results);

    // Golden-statistics regression gate: every successful point's full
    // counter dict must match its checked-in snapshot bit for bit.
    int drifted = 0;
    if (!golden_dir.empty()) {
        for (const auto &r : results) {
            if (!r.ok)
                continue;
            const std::string path =
                golden_dir + "/" + harness::goldenFileName(r.point);
            try {
                const StatDict expected = harness::readGoldenFile(path);
                const auto drift = harness::diffStatDicts(
                    expected, harness::statsToDict(r.stats));
                if (drift.empty())
                    continue;
                ++drifted;
                std::cerr << "golden drift: " << r.point.label()
                          << " vs " << path << ":\n";
                size_t shown = 0;
                for (const auto &d : drift) {
                    if (++shown > 12) {
                        std::cerr << "  ... and " << drift.size() - 12
                                  << " more counters\n";
                        break;
                    }
                    std::cerr << "  " << harness::describeDrift(d) << '\n';
                }
            } catch (const std::exception &e) {
                ++drifted;
                std::cerr << "golden: " << r.point.label() << ": "
                          << e.what() << '\n';
            }
        }
        if (drifted) {
            std::cerr << "golden: " << drifted
                      << " point(s) drifted from " << golden_dir
                      << " (see README on regenerating snapshots)\n";
        } else if (!quiet) {
            std::cerr << "golden: all points match " << golden_dir
                      << '\n';
        }
    }

    if (!write_golden_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(write_golden_dir, ec);
        int written = 0;
        for (const auto &r : results) {
            if (!r.ok)
                continue;
            try {
                harness::writeGoldenFile(
                    write_golden_dir + "/" +
                        harness::goldenFileName(r.point),
                    harness::statsToDict(r.stats));
                ++written;
            } catch (const std::exception &e) {
                std::cerr << "tproc-sweep: " << e.what() << '\n';
                return 126;
            }
        }
        std::cerr << "wrote " << written << " golden snapshot"
                  << (written == 1 ? "" : "s") << " to "
                  << write_golden_dir << '\n';
    }

    StatDict merged = harness::mergeResults(results);
    std::cout << "\nmerged: " << results.size() - failed << "/"
              << results.size() << " points ok, "
              << jsonNumber(merged.get("retiredInsts"))
              << " total retired insts, "
              << jsonNumber(merged.get("cycles")) << " total cycles\n";

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "tproc-sweep: cannot write " << json_path
                      << '\n';
            return 126;
        }
        harness::writeMergedJson(out, results);
        if (!quiet)
            std::cerr << "wrote " << json_path << '\n';
    }
    if (!metrics_path.empty()) {
        try {
            harness::writeMetricsFile(
                metrics_path,
                harness::buildMetricsDoc(
                    metrics_interval, results,
                    PhaseTimers::diff(PhaseTimers::global().snapshot(),
                                      phases_before)));
        } catch (const std::exception &e) {
            std::cerr << "tproc-sweep: " << e.what() << '\n';
            return 126;
        }
        if (!quiet)
            std::cerr << "wrote " << metrics_path << '\n';
    }

    const int bad = failed + drifted;
    return bad > 125 ? 125 : bad;
}
