/**
 * @file
 * bench_paper: regenerate every table and figure of the paper (Tables
 * 1-5, Figures 9-10, and the ablations) from one deduplicated sweep
 * (src/harness/paper.hh), printing the paper's reference numbers next
 * to the measured ones.
 *
 *   bench_paper --insts=20000 --json=paper.json
 *
 * Every point is golden-model verified. --json writes the
 * tproc-paper-v1 document; it and the printed tables are byte-identical
 * for any --threads.
 *
 * Exit status: 0 ok; 1 a point failed (all failures are listed, the
 * document is still written, and no table is printed); 2 usage error
 * (including --insts below 2) or an unwritable --json path; 126 when
 * the document cannot be written after the sweep.
 */

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness/paper.hh"
#include "tools/cli.hh"

using namespace tproc;

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: bench_paper [flags]\n"
       << "  --insts=N     instructions per point, at least 2; the\n"
       << "                ablations run N/2 (400000)\n"
       << "  --seed=N      workload generation seed (1)\n"
       << "  --threads=N   sweep worker threads, 0 = hw concurrency (0)\n"
       << "  --json=FILE   write the tproc-paper-v1 document\n"
       << "  --help        print this and exit\n";
}

int
usageError(const std::string &msg)
{
    std::cerr << "bench_paper: " << msg << "\n\n";
    usage(std::cerr);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t insts = 400000;
    uint64_t seed = 1;
    harness::SweepEngine::Options engine;
    engine.progress = true;
    std::string json;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string v;
        if (cli::parseArg(argv[i], "--insts", v)) {
            if (!cli::parseU64(v, insts))
                return usageError("bad --insts '" + v + "'");
        } else if (cli::parseArg(argv[i], "--seed", v)) {
            if (!cli::parseU64(v, seed))
                return usageError("bad --seed '" + v + "'");
        } else if (cli::parseArg(argv[i], "--threads", v)) {
            if (!cli::parseU32(v, engine.threads))
                return usageError("bad --threads '" + v + "'");
        } else if (cli::parseArg(argv[i], "--json", v)) {
            if (!cli::checkWritable(v))
                return usageError("cannot write --json path '" + v + "'");
            json = v;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            return usageError("unknown argument '" + arg + "'");
        }
    }

    harness::PaperResult result;
    try {
        result = harness::runPaper(insts, seed, engine);
    } catch (const std::invalid_argument &e) {
        return usageError(e.what());
    }
    if (!json.empty()) {
        std::ofstream out(json);
        harness::writePaperJson(out, result);
        if (!out.flush()) {
            std::cerr << "bench_paper: cannot write " << json << '\n';
            return 126;
        }
        std::cerr << "bench_paper: wrote " << json << '\n';
    }

    size_t failed = 0;
    for (const auto &r : result.points) {
        if (!r.ok) {
            std::cerr << "bench_paper: point " << r.point.index << " "
                      << r.point.label() << " failed: " << r.error << '\n';
            ++failed;
        }
    }
    if (failed) {
        std::cerr << "bench_paper: " << failed << " of "
                  << result.points.size() << " points failed\n";
        return 1;
    }
    harness::renderPaper(std::cout, result);
    return 0;
}
