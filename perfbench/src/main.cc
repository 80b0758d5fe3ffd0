/**
 * @file
 * perfbench: one benchmark invocation. run.py is the entry point users
 * and scripts call; it builds this binary, samples set-up time and
 * prints the final result line. Usage:
 *
 *   perfbench --workload W --seed N --seconds T --trace 0|1
 *             [--work-dir DIR] [--trace-out FILE] [--setup-only]
 *
 * Progress and the human-readable report go to stdout; the last line
 * is one JSON object with correct, attempted, failed, metrics,
 * ready_ns (steady-clock nanoseconds at the end of set-up) and
 * setup_speed (host speed right after set-up). Exit 0 when
 * every point is correct, 1 when some point failed, 2 on bad usage.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hh"
#include "common/parse.hh"

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload W --seed N --seconds T "
                 "--trace 0|1 [--work-dir DIR] [--trace-out FILE] "
                 "[--setup-only]\n";
    std::exit(2);
}

uint64_t
u64Arg(const std::string &flag, const std::string &v)
{
    uint64_t out = 0;
    if (!tproc::parseU64(v, out))
        usage("bad value for " + flag + ": '" + v + "'");
    return out;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--setup-only") {
            opt.setupOnly = true;
            continue;
        }
        std::string val;
        const size_t eq = flag.find('=');
        if (eq != std::string::npos) {
            val = flag.substr(eq + 1);
            flag.resize(eq);
        } else if (i + 1 < argc) {
            val = argv[++i];
        } else {
            usage("missing value for " + flag);
        }
        if (flag == "--workload")
            opt.workload = val;
        else if (flag == "--seed")
            opt.seed = u64Arg(flag, val);
        else if (flag == "--seconds")
            opt.seconds = static_cast<double>(u64Arg(flag, val));
        else if (flag == "--trace")
            opt.trace = u64Arg(flag, val) != 0;
        else if (flag == "--work-dir")
            opt.workDir = val;
        else if (flag == "--trace-out")
            opt.traceOut = val;
        else
            usage("unknown flag " + flag);
    }
    if (opt.workload.empty())
        usage("--workload is required");

    perfbench::Report rep;
    try {
        rep = perfbench::runBenchmark(opt, std::cout);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }

    std::cout << "{\"correct\": " << (rep.correct ? "true" : "false")
              << ", \"attempted\": " << rep.attempted
              << ", \"failed\": " << rep.failed << ", \"metrics\": {";
    bool firstMetric = true;
    for (const auto &[name, value] : rep.metrics) {
        const char *unit = "";
        for (const auto &d : perfbench::metricDefs()) {
            if (name == d.name)
                unit = d.unit;
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        std::cout << (firstMetric ? "" : ", ") << "\"" << name
                  << "\": {\"value\": " << buf << ", \"unit\": \"" << unit
                  << "\"}";
        firstMetric = false;
    }
    std::cout << "}, \"ready_ns\": " << rep.readyNs
              << ", \"setup_speed\": " << rep.setupSpeed << "}" << std::endl;
    return rep.correct ? 0 : 1;
}
