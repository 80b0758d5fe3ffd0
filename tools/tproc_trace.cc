/**
 * @file
 * tproc-trace: workload trace capture / inspection CLI.
 *
 * Usage:
 *   tproc-trace record (--workload=W | --all) [--seed=S] [--scale=X]
 *               [--insts=N] (--out=FILE | --dir=DIR)
 *   tproc-trace info FILE...
 *   tproc-trace verify FILE...
 *
 * `record` captures the architectural execution of a named workload
 * (the program plus the digest chain of its execution) into a trace
 * file; with --dir the file lands under the TraceStore naming scheme
 * the sweep harness's --trace-dir mode looks up. The capture is its
 * own verification (it emulates the program it decodes from the
 * file's PROG chunk), so `record` emulates each workload once and
 * never parses the file it wrote. `info` prints a parsed trace's
 * metadata. `verify` checks every chunk checksum and END's digest and
 * re-emulates the program against the digest chain; its exit status
 * is the number of files that failed (capped at 125), which is what
 * the CI golden job gates on. `info` verifies too, so it rejects what
 * `verify` rejects. Usage errors exit 2, and a failed capture exits
 * 126.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "replay/capture.hh"
#include "replay/trace_store.hh"
#include "tools/cli.hh"
#include "workloads/workloads.hh"

using namespace tproc;
using cli::parseArg;

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: tproc-trace record (--workload=W | --all) [--seed=S]\n"
          "                   [--scale=X] [--insts=N]\n"
          "                   (--out=FILE | --dir=DIR)\n"
          "       tproc-trace info FILE...\n"
          "       tproc-trace verify FILE...\n";
}

int
recordMain(int argc, char **argv)
{
    std::string workload;
    bool all = false;
    uint64_t seed = 1;
    double scale = 1.0;
    uint64_t insts = UINT64_MAX;
    std::string out_path;
    std::string dir;

    for (int i = 2; i < argc; ++i) {
        std::string v;
        if (parseArg(argv[i], "--workload", v)) {
            workload = v;
        } else if (std::strcmp(argv[i], "--all") == 0) {
            all = true;
        } else if (parseArg(argv[i], "--seed", v)) {
            if (!cli::parseU64(v, seed)) {
                std::cerr << "tproc-trace record: bad --seed '" << v
                          << "' (want a decimal number)\n";
                usage(std::cerr);
                return 2;
            }
        } else if (parseArg(argv[i], "--scale", v)) {
            char *end = nullptr;
            scale = std::strtod(v.c_str(), &end);
            if (v.empty() || end != v.c_str() + v.size() ||
                !std::isfinite(scale) || scale <= 0.0) {
                std::cerr << "tproc-trace record: bad --scale '" << v
                          << "' (want a positive finite number)\n";
                usage(std::cerr);
                return 2;
            }
        } else if (parseArg(argv[i], "--insts", v)) {
            if (!cli::parseU64(v, insts)) {
                std::cerr << "tproc-trace record: bad --insts '" << v
                          << "' (want a decimal number)\n";
                usage(std::cerr);
                return 2;
            }
        } else if (parseArg(argv[i], "--out", v)) {
            out_path = v;
        } else if (parseArg(argv[i], "--dir", v)) {
            dir = v;
        } else {
            std::cerr << "tproc-trace record: unknown argument '"
                      << argv[i] << "'\n";
            usage(std::cerr);
            return 2;
        }
    }
    if (all == !workload.empty() || out_path.empty() == dir.empty() ||
        (all && !out_path.empty())) {
        std::cerr << "tproc-trace record: need exactly one of --workload "
                     "or --all, and exactly one of --out (single "
                     "workload) or --dir\n";
        usage(std::cerr);
        return 2;
    }

    std::vector<std::string> names =
        all ? workloadNames() : std::vector<std::string>{workload};
    for (const auto &name : names) {
        try {
            std::string path = out_path;
            std::shared_ptr<const replay::TraceReader> reader;
            if (!dir.empty()) {
                replay::TraceStore store(dir);
                auto ensured = store.ensure(name, seed, scale, insts);
                path = store.tracePath(name, seed, scale, insts);
                reader = ensured.reader;
                if (!ensured.captured) {
                    std::cerr << name << ": valid trace already at "
                              << path << " (" << reader->info().totalSteps
                              << " steps), kept\n";
                    continue;
                }
            } else {
                reader = replay::captureWorkloadTrace(name, seed, scale,
                                                      insts, path);
            }
            std::cerr << name << ": recorded "
                      << reader->info().totalSteps << " steps to " << path
                      << (reader->info().cleanHalt ? " (ran to HALT)"
                                                   : " (hit cap)")
                      << '\n';
        } catch (const std::exception &e) {
            std::cerr << "tproc-trace record: " << name << ": "
                      << e.what() << '\n';
            return 126;
        }
    }
    return 0;
}

void
printInfo(const std::string &path, const replay::TraceInfo &info)
{
    TextTable t;
    t.header({"field", "value"});
    t.row({"file", path});
    t.row({"version", std::to_string(info.version)});
    t.row({"bytes", std::to_string(info.fileBytes)});
    t.row({"workload", info.meta.workload});
    t.row({"program", info.meta.programName});
    t.row({"seed", std::to_string(info.meta.seed)});
    t.row({"scale", fmtDouble(info.meta.scale, 3)});
    t.row({"capture cap",
           info.meta.captureCap == UINT64_MAX
               ? std::string("unbounded (to HALT)")
               : std::to_string(info.meta.captureCap)});
    t.row({"steps", std::to_string(info.totalSteps)});
    t.row({"clean halt", info.cleanHalt ? "yes" : "no (hit cap)"});
    t.row({"code insts", std::to_string(info.codeSize)});
    t.row({"data words", std::to_string(info.dataInitSize)});
    t.row({"digests", std::to_string(info.digests)});
    if (info.totalSteps) {
        t.row({"bytes/step",
               fmtDouble(static_cast<double>(info.fileBytes) /
                             static_cast<double>(info.totalSteps),
                         2)});
    }
    t.print(std::cout);
}

int
infoOrVerifyMain(int argc, char **argv, bool full_verify)
{
    std::vector<std::string> files;
    for (int i = 2; i < argc; ++i) {
        if (argv[i][0] == '-') {
            std::cerr << "tproc-trace: unknown argument '" << argv[i]
                      << "'\n";
            usage(std::cerr);
            return 2;
        }
        files.push_back(argv[i]);
    }
    if (files.empty()) {
        std::cerr << "tproc-trace: no trace files given\n";
        usage(std::cerr);
        return 2;
    }

    int failed = 0;
    for (const auto &path : files) {
        std::string error;
        replay::TraceInfo info;
        if (replay::TraceReader::verify(path, &error, &info)) {
            if (full_verify) {
                std::cout << path << ": OK (v" << info.version << ", "
                          << info.totalSteps << " steps re-emulated, "
                          << info.digests << " digests)\n";
            } else {
                printInfo(path, info);
                if (files.size() > 1)
                    std::cout << '\n';
            }
        } else {
            std::cout << path << ": FAILED: " << error << '\n';
            ++failed;
        }
    }
    return failed > 125 ? 125 : failed;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
        std::strcmp(argv[1], "-h") == 0) {
        usage(argc < 2 ? std::cerr : std::cout);
        return argc < 2 ? 2 : 0;
    }
    if (std::strcmp(argv[1], "record") == 0)
        return recordMain(argc, argv);
    if (std::strcmp(argv[1], "info") == 0)
        return infoOrVerifyMain(argc, argv, /*full_verify=*/false);
    if (std::strcmp(argv[1], "verify") == 0)
        return infoOrVerifyMain(argc, argv, /*full_verify=*/true);
    std::cerr << "tproc-trace: unknown subcommand '" << argv[1] << "'\n";
    usage(std::cerr);
    return 2;
}
