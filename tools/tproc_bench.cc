/**
 * @file
 * tproc-bench: produce or check the canonical BENCH_<n>.json
 * performance-trajectory artifact (see src/harness/bench_report.hh).
 *
 * Produce mode (default): run the bench suite and write the report.
 *
 *   tproc-bench --out=BENCH_1.json --insts=100000 \
 *       --baseline=baseline.json --baseline-label="pre-SoA hot path"
 *
 * Check mode: re-run at the checked-in file's own config and diff the
 * deterministic (non-timing) fields — the CI trajectory gate.
 *
 *   tproc-bench --check=BENCH_1.json --out=fresh.json
 *
 * --metrics-json=FILE additionally emits a tproc-metrics-v1 telemetry
 * document (interval series for the live pass + phase wall-time
 * attribution; see docs/metrics.md) and implies --metrics-interval=4096
 * unless one is given. Telemetry never changes the report's non-timing
 * fields, so it composes with --check.
 *
 * Exit status: 0 clean; 1 divergence, identity-gate failure, a failed
 * simulation point, or a --check file that cannot be read (its config
 * integers are range-checked before anything runs, and the error
 * names the field); 2 usage error (bad numbers and unwritable
 * --metrics-json destinations included — both are checked up front).
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/bench_report.hh"
#include "harness/metrics.hh"
#include "tools/cli.hh"

using namespace tproc;

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: tproc-bench [options]\n"
       << "  --out=FILE            write the report JSON (default\n"
       << "                        BENCH_<index>.json; '-' = stdout)\n"
       << "  --insts=N             retired-inst limit per run (100000)\n"
       << "  --seed=N              workload seed (1)\n"
       << "  --model=NAME          processor model (base)\n"
       << "  --reps=N              wall-time reps (>= 1), best kept (3)\n"
       << "  --index=N             BENCH_<n> sequence number (1)\n"
       << "  --no-verify           skip golden-model verification\n"
       << "  --baseline=FILE       embed FILE's summary as the baseline\n"
       << "                        block (pre-change numbers)\n"
       << "  --baseline-label=STR  label for the baseline block\n"
       << "  --check=FILE          re-run at FILE's config and diff\n"
       << "                        non-timing fields against it\n"
       << "  --metrics-json=FILE   write a tproc-metrics-v1 telemetry\n"
       << "                        document (see docs/metrics.md)\n"
       << "  --metrics-interval=N  sampling interval in cycles (4096\n"
       << "                        when --metrics-json is given)\n"
       << "  --quiet               suppress progress lines\n";
}

JsonValue
readReportFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseJson(ss.str());
}

bool
identityGatesGreen(const JsonValue &report, std::ostream &os)
{
    const JsonValue &identity = report.at("identity");
    bool ok = true;
    for (const auto &[key, value] : identity.asObject()) {
        if (!value.asBool()) {
            os << "tproc-bench: identity gate failed: " << key << "\n";
            ok = false;
        }
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::BenchReportOptions opts;
    std::string out_path;
    std::string baseline_path;
    std::string baseline_label = "previous";
    std::string check_path;
    std::string metrics_path;
    bool quiet = false;

    // Numeric flags parse strictly: "--insts=abc" is a usage error
    // (exit 2), not an uncaught std::invalid_argument or a silent zero.
    auto badNumber = [](const char *flag, const std::string &v) {
        std::cerr << "tproc-bench: bad " << flag << " '" << v
                  << "' (want a decimal number)\n\n";
        usage(std::cerr);
        return 2;
    };

    for (int i = 1; i < argc; ++i) {
        std::string v;
        if (cli::parseArg(argv[i], "--out", v)) {
            out_path = v;
        } else if (cli::parseArg(argv[i], "--insts", v)) {
            if (!cli::parseU64(v, opts.insts))
                return badNumber("--insts", v);
        } else if (cli::parseArg(argv[i], "--seed", v)) {
            if (!cli::parseU64(v, opts.seed))
                return badNumber("--seed", v);
        } else if (cli::parseArg(argv[i], "--model", v)) {
            opts.model = v;
        } else if (cli::parseArg(argv[i], "--reps", v)) {
            if (!cli::parseInt(v, opts.reps) || opts.reps == 0)
                return badNumber("--reps", v);
        } else if (cli::parseArg(argv[i], "--index", v)) {
            if (!cli::parseU32(v, opts.benchIndex))
                return badNumber("--index", v);
        } else if (cli::parseArg(argv[i], "--metrics-json", v)) {
            metrics_path = v;
        } else if (cli::parseArg(argv[i], "--metrics-interval", v)) {
            if (!cli::parseU64(v, opts.metricsInterval) ||
                opts.metricsInterval == 0) {
                return badNumber("--metrics-interval", v);
            }
        } else if (std::string(argv[i]) == "--no-verify") {
            opts.verify = false;
        } else if (cli::parseArg(argv[i], "--baseline", v)) {
            baseline_path = v;
        } else if (cli::parseArg(argv[i], "--baseline-label", v)) {
            baseline_label = v;
        } else if (cli::parseArg(argv[i], "--check", v)) {
            check_path = v;
        } else if (std::string(argv[i]) == "--quiet") {
            quiet = true;
        } else if (std::string(argv[i]) == "--help" ||
                   std::string(argv[i]) == "-h") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "tproc-bench: unknown argument '" << argv[i]
                      << "'\n\n";
            usage(std::cerr);
            return 2;
        }
    }

    // An unwritable telemetry destination is a usage error up front,
    // not a lost-results error after a multi-minute bench run.
    if (!metrics_path.empty()) {
        if (!cli::checkWritable(metrics_path)) {
            std::cerr << "tproc-bench: cannot write --metrics-json "
                         "path '" << metrics_path << "'\n\n";
            usage(std::cerr);
            return 2;
        }
        if (opts.metricsInterval == 0)
            opts.metricsInterval = 4096;
    }

    try {
        JsonValue checked_in;
        if (!check_path.empty()) {
            // The checked-in file defines the run: same insts, seed,
            // model, thread list — so the non-timing fields are
            // comparable bit for bit.
            checked_in = readReportFile(check_path);
            const uint64_t metrics_interval = opts.metricsInterval;
            opts = harness::optionsFromReport(checked_in);
            // Sampling is an execution detail, not part of the
            // checked-in identity: keep what the command line asked
            // for. The check itself then doubles as a bit-identity
            // proof that telemetry never perturbs the report.
            opts.metricsInterval = metrics_interval;
            std::cerr << "tproc-bench: checking against " << check_path
                      << " (insts=" << opts.insts << ", seed="
                      << opts.seed << ", model=" << opts.model << ")\n";
        }

        JsonValue metrics_doc;
        JsonValue report =
            harness::runBenchReport(opts, quiet ? nullptr : &std::cerr,
                                    metrics_path.empty() ? nullptr
                                                         : &metrics_doc);

        if (!metrics_path.empty()) {
            harness::writeMetricsFile(metrics_path, metrics_doc);
            std::cerr << "tproc-bench: wrote " << metrics_path << "\n";
        }

        if (!baseline_path.empty()) {
            harness::attachBaseline(report, readReportFile(baseline_path),
                                    baseline_label);
        }

        if (out_path.empty()) {
            out_path = check_path.empty()
                ? "BENCH_" + std::to_string(opts.benchIndex) + ".json"
                : "";
        }
        if (out_path == "-") {
            writeJson(std::cout, report);
            std::cout << "\n";
        } else if (!out_path.empty()) {
            std::ofstream out(out_path);
            writeJson(out, report);
            out << "\n";
            std::cerr << "tproc-bench: wrote " << out_path << "\n";
        }

        bool green = identityGatesGreen(report, std::cerr);

        if (!check_path.empty()) {
            auto diffs = harness::diffBenchReports(checked_in, report);
            if (!diffs.empty()) {
                std::cerr << "tproc-bench: " << diffs.size()
                          << " non-timing field(s) diverge from "
                          << check_path << ":\n";
                for (const auto &d : diffs)
                    std::cerr << "  " << d << "\n";
                green = false;
            } else {
                std::cerr << "tproc-bench: non-timing fields match "
                          << check_path << "\n";
            }
        }
        return green ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "tproc-bench: " << e.what() << "\n";
        return 1;
    }
}
