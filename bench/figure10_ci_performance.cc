/**
 * @file
 * Figure 10: performance of control independence — % IPC improvement
 * over base for the four CI models (RET, MLB-RET, FG, FG+MLB-RET), plus
 * the paper's summary statistics (average improvement, best-per-
 * benchmark average, average over misprediction-heavy benchmarks).
 *
 * Shape to reproduce: coarse-grain CI helps broadly except on jpeg
 * (which is fine-grain dominated) and the low-misprediction benchmarks
 * (m88ksim, vortex); FG is strongest on compress/jpeg; loop-heavy li is
 * covered by MLB-RET; combining FG with MLB-RET is the best average.
 *
 * The 40-point (workload x model) matrix runs through the parallel
 * harness engine (--threads controls the fan-out; --json archives
 * per-point stats).
 */

#include <iostream>

#include "bench/common.hh"

using namespace tproc;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::printHeaderNote(
        "FIGURE 10: performance of control independence (% IPC over base)");

    const std::vector<std::string> models = {
        "base", "RET", "MLB-RET", "FG", "FG+MLB-RET",
    };
    auto matrix = bench::runMatrix(models);
    const std::vector<std::string> ci = {"RET", "MLB-RET", "FG",
                                         "FG+MLB-RET"};

    TextTable t;
    t.header({"benchmark", "RET", "MLB-RET", "FG", "FG+MLB-RET",
              "recoveries fg/cg/full (FG+MLB-RET)"});

    std::map<std::string, double> avg;
    double best_sum = 0.0;
    double heavy_sum = 0.0;
    int heavy_n = 0;

    for (const auto &name : workloadNames()) {
        double base = matrix[name]["base"].ipc();
        std::vector<std::string> row = {name};
        double best = 0.0;
        for (const auto &m : ci) {
            double delta = matrix[name][m].ipc() / base - 1.0;
            avg[m] += delta;
            best = std::max(best, delta);
            row.push_back(fmtPct(delta, 1));
        }
        const ProcessorStats &s = matrix[name]["FG+MLB-RET"];
        row.push_back(std::to_string(s.recoveriesFgci) + "/" +
                      std::to_string(s.recoveriesCgci) + "/" +
                      std::to_string(s.recoveriesFull));
        t.row(row);

        best_sum += best;
        // "Significant misprediction rates": more than ~2 trace
        // mispredictions per 1000 instructions (paper Section 6.2).
        if (matrix[name]["base"].traceMispPerKilo() > 2.0) {
            heavy_sum += best;
            ++heavy_n;
        }
    }

    std::vector<std::string> av = {"average"};
    for (const auto &m : ci)
        av.push_back(fmtPct(avg[m] / workloadNames().size(), 1));
    av.push_back("");
    t.row(av);
    t.print(std::cout);

    std::cout << "\nsummary:\n"
              << "  best technique per benchmark, average improvement: "
              << fmtPct(best_sum / workloadNames().size(), 1) << '\n'
              << "  same, over misprediction-heavy benchmarks (>2 trace "
                 "misp/1k): "
              << (heavy_n ? fmtPct(heavy_sum / heavy_n, 1)
                          : std::string("-"))
              << " (" << heavy_n << " benchmarks)\n";

    std::cout << "\nPaper (Figure 10 / Section 6.2): improvements range "
                 "2%..25%; FG+MLB-RET is the\nbest average (~10%); "
                 "best-per-benchmark averages 13%, and 17% over the\n"
                 "benchmarks with significant misprediction rates. RET: "
                 "~5% gcc, ~10% li/perl,\n~20% compress/go; jpeg gains "
                 "only from FG; m88ksim/vortex are flat (<1% misp).\n";
    return 0;
}
