/**
 * @file
 * tproc-sweep: batch simulation CLI. Fans (workload x model) points
 * across worker threads via the harness SweepEngine, prints a result
 * table, and optionally writes the full per-point stats as JSON.
 *
 * Sweep usage:
 *   tproc-sweep [--workloads=a,b,...] [--models=a,b,...] [--insts=N]
 *               [--seed=S] [--threads=T] [--shard=I/N] [--json=FILE]
 *               [--trace-dir=DIR] [--golden=DIR] [--write-golden=DIR]
 *               [--metrics-json=FILE] [--metrics-interval=N]
 *               [--no-verify] [--quiet] [--generate=N]
 *               [--pattern-mix=SPEC]
 *
 * Merge usage:
 *   tproc-sweep merge [--out=FILE] shard0.json shard1.json ...
 *
 * --generate=N swaps the workload list for N generated synthetic
 * workloads "gen:<mix>:<0..N-1>" (src/workloads/generator.hh): the mix
 * comes from --pattern-mix (default "all"), the data seed from --seed.
 * Generated points are ordinary SweepPoints — identity is the name
 * plus seed — so they compose with
 * --shard/--trace-dir/--golden/--metrics-json unchanged, and two runs
 * with the same flags are bit-identical.
 *
 * An unknown workload name, generator pattern, or pattern-mix spec is
 * reported with the valid names and exits 2 (the usage convention
 * shared with tproc-bench).
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
 * --shard=I/N runs the stable 1/N slice of the point grid owned by
 * 0-based shard I, with the same per-point indices and seeds as the
 * unsharded run. `merge` folds result documents (the shards' --json
 * files) into one that is bit-identical to --json of a serial
 * unsharded run.
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
 * flags a usage or artifact error, except an unwritable --metrics-json
 * destination which exits 2 (checked up front, matching tproc-bench's
 * usage convention — see docs/cli.md).
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
          "                   [--shard=I/N] [--json=FILE]\n"
          "                   [--trace-dir=DIR] [--golden=DIR]\n"
          "                   [--write-golden=DIR] "
          "[--metrics-json=FILE]\n"
          "                   [--metrics-interval=N] [--no-verify] "
          "[--quiet]\n"
          "                   [--generate=N] [--pattern-mix=SPEC]\n"
          "       tproc-sweep merge [--out=FILE] a.json b.json ...\n";
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

int
mergeMain(int argc, char **argv)
{
    std::string out_path;
    std::vector<std::string> inputs;
    for (int i = 2; i < argc; ++i) {
        std::string v;
        if (parseArg(argv[i], "--out", v)) {
            out_path = v;
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            usage(std::cout);
            return 0;
        } else if (argv[i][0] == '-') {
            std::cerr << "tproc-sweep merge: unknown argument '"
                      << argv[i] << "'\n";
            usage(std::cerr);
            return 126;
        } else {
            inputs.push_back(argv[i]);
        }
    }
    if (inputs.empty()) {
        std::cerr << "tproc-sweep merge: no input files\n";
        usage(std::cerr);
        return 126;
    }

    std::vector<harness::SweepResult> all;
    for (const auto &path : inputs) {
        std::ifstream in(path);
        if (!in) {
            std::cerr << "tproc-sweep merge: cannot read " << path
                      << '\n';
            return 126;
        }
        try {
            auto shard = harness::readResultsJson(in);
            all.insert(all.end(), shard.begin(), shard.end());
        } catch (const std::exception &e) {
            std::cerr << "tproc-sweep merge: " << path << ": "
                      << e.what() << '\n';
            return 126;
        }
    }

    // Shards must tile the grid: a duplicate index means two artifacts
    // claim the same point (merging would double-count it), a gap means
    // a shard is missing (the merge would silently under-report).
    std::vector<uint64_t> indices;
    indices.reserve(all.size());
    for (const auto &r : all)
        indices.push_back(r.point.index);
    std::sort(indices.begin(), indices.end());
    for (size_t i = 1; i < indices.size(); ++i) {
        if (indices[i] == indices[i - 1]) {
            std::cerr << "tproc-sweep merge: point index " << indices[i]
                      << " appears in more than one input\n";
            return 126;
        }
    }
    for (size_t i = 0; i < indices.size(); ++i) {
        if (indices[i] != i) {
            std::cerr << "tproc-sweep merge: warning: point index " << i
                      << " missing (inputs do not tile a full grid)\n";
            break;
        }
    }

    std::ostream *os = &std::cout;
    std::ofstream out_file;
    if (!out_path.empty()) {
        out_file.open(out_path);
        if (!out_file) {
            std::cerr << "tproc-sweep merge: cannot write " << out_path
                      << '\n';
            return 126;
        }
        os = &out_file;
    }
    harness::writeMergedJson(*os, all);
    size_t failed = 0;
    for (const auto &r : all)
        failed += r.ok ? 0 : 1;
    std::cerr << "merged " << inputs.size() << " artifacts, "
              << all.size() - failed << "/" << all.size()
              << " points ok\n";
    return failed > 125 ? 125 : static_cast<int>(failed);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "merge") == 0)
        return mergeMain(argc, argv);

    std::vector<std::string> workloads = workloadNames();
    std::vector<std::string> models = {"base", "FG+MLB-RET"};
    uint64_t insts = 400000;
    uint64_t seed = 1;
    unsigned threads = 0;
    unsigned shard = 0;
    unsigned shard_count = 0;
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
        return 126;
    };

    for (int i = 1; i < argc; ++i) {
        std::string v;
        if (parseArg(argv[i], "--workloads", v)) {
            workloads = splitList(v);
        } else if (parseArg(argv[i], "--models", v)) {
            models = splitList(v);
        } else if (parseArg(argv[i], "--insts", v)) {
            if (!cli::parseU64(v, insts))
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
        } else if (parseArg(argv[i], "--shard", v)) {
            if (!cli::parseShard(v, shard, shard_count)) {
                std::cerr << "tproc-sweep: bad --shard '" << v
                          << "' (want decimal I/N with 0 <= I < N)\n";
                usage(std::cerr);
                return 126;
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
                          << cli::maxCountFlag
                          << " (shard a large campaign instead)\n";
                usage(std::cerr);
                return 126;
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
            return 126;
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
    // fault mid-sweep.
    for (const std::string &m : models) {
        try {
            (void)ProcessorConfig::forModel(m);
        } catch (const ConfigError &e) {
            std::cerr << "tproc-sweep: " << e.what() << '\n';
            usage(std::cerr);
            return 2;
        }
    }

    // An unwritable telemetry destination is a usage error up front
    // (exit 2, the metrics-emitting convention shared with tproc-bench
    // — docs/cli.md), not a lost-results fopen error after the sweep.
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

    auto grid =
        harness::crossPoints(workloads, models, seed, insts, verify);
    // Replay mode is a per-point execution detail: indices, seeds, and
    // stats are identical to a live run, so it composes with sharding
    // untouched.
    if (!trace_dir.empty()) {
        for (auto &p : grid)
            p.traceDir = trace_dir;
    }
    if (metrics_interval) {
        for (auto &p : grid)
            p.metricsInterval = metrics_interval;
    }
    auto points =
        shard_count ? harness::shardPoints(grid, shard, shard_count)
                    : grid;

    harness::SweepEngine::Options opts;
    opts.threads = threads;
    opts.progress = !quiet;
    harness::SweepEngine engine(opts);

    if (!quiet) {
        std::cerr << "sweep: " << points.size() << " points";
        if (shard_count) {
            std::cerr << " (shard " << shard << "/" << shard_count
                      << " of " << grid.size() << ")";
        } else {
            std::cerr << " (" << workloads.size() << " workloads x "
                      << models.size() << " models)";
        }
        std::cerr << ", " << engine.effectiveThreads(points.size())
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
                    std::cerr << "  " << d.key << ": golden "
                              << (d.inExpected ? jsonNumber(d.expected)
                                               : std::string("<absent>"))
                              << ", got "
                              << (d.inActual ? jsonNumber(d.actual)
                                             : std::string("<absent>"))
                              << '\n';
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
