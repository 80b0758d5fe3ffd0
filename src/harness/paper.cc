#include "harness/paper.hh"

#include <algorithm>
#include <future>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/stats.hh"
#include "core/config.hh"
#include "emulator/emulator.hh"
#include "workloads/workloads.hh"

namespace tproc::harness
{

namespace
{

/** Section 6.1: trace selection constraints without CI. */
const std::vector<std::string> selectionModels = {
    "base", "base(ntb)", "base(fg)", "base(fg,ntb)",
};

/** Section 6.2: the control-independence models. */
const std::vector<std::string> ciModels = {
    "RET", "MLB-RET", "FG", "FG+MLB-RET",
};

/** The two most CI-sensitive analogs carry the ablations. */
const std::vector<std::string> ablationWorkloads = {"compress", "li"};

/**
 * A machine knob the ablation varies one at a time from the Table-1
 * machine; each value is one cell, FG+MLB-RET against base.
 */
struct Knob
{
    const char *name;       //!< point-label key ("pes=4")
    const char *header;     //!< first header cell of its table
    std::vector<uint64_t> values;
    /** PEs and trace length shape both machines of a cell. The CGCI
     *  re-convergence bound exists only on the CI machine, so its
     *  cells compare against the default base. */
    bool baselineToo;
    uint64_t (*get)(const ProcessorConfig &);
    void (*set)(ProcessorConfig &, uint64_t);
};

const std::vector<Knob> ablationKnobs = {
    {"pes", "PEs", {4, 8, 16, 32}, true,
     [](const ProcessorConfig &c) -> uint64_t { return c.numPEs; },
     [](ProcessorConfig &c, uint64_t v) {
         c.numPEs = static_cast<int>(v);
     }},
    {"len", "max trace len", {8, 16, 32}, true,
     [](const ProcessorConfig &c) -> uint64_t {
         return c.selection.maxTraceLen;
     },
     [](ProcessorConfig &c, uint64_t v) {
         c.selection.maxTraceLen = c.bit.maxTraceLen = static_cast<int>(v);
     }},
    {"bound", "reconv. bound (cycles)", {32, 128, 1024}, false,
     [](const ProcessorConfig &c) { return c.cgciReconvergeTimeout; },
     [](ProcessorConfig &c, uint64_t v) { c.cgciReconvergeTimeout = v; }},
};

/**
 * The point running `model` with `knob` at `value`. Only a knob that
 * differs from the model's default enters the configuration and the
 * label, so a cell at the default machine is the model's plain point.
 */
SweepPoint
makePoint(const std::string &workload, const std::string &model,
          const Knob *knob, uint64_t value, uint64_t insts, uint64_t seed)
{
    SweepPoint p;
    p.workload = workload;
    p.model = model;
    p.seed = seed;
    p.maxInsts = insts;
    ProcessorConfig cfg = ProcessorConfig::forModel(model);
    if (knob && knob->get(cfg) != value) {
        knob->set(cfg, value);
        p.config = cfg;
        p.useConfig = true;
        p.labelOverride = workload + "/" + model + " " + knob->name + "=" +
            std::to_string(value);
    }
    return p;
}

/** The (CI, baseline) points of one ablation cell. */
std::pair<SweepPoint, SweepPoint>
cellPoints(const std::string &workload, const Knob &knob, uint64_t value,
           uint64_t insts, uint64_t seed)
{
    const uint64_t n = insts / 2;
    return {makePoint(workload, "FG+MLB-RET", &knob, value, n, seed),
            makePoint(workload, "base", knob.baselineToo ? &knob : nullptr,
                      value, n, seed)};
}

/** A point's identity within one seed: label plus instruction count. */
using PointKey = std::pair<std::string, uint64_t>;

PointKey
keyOf(const SweepPoint &p)
{
    return {p.label(), p.maxInsts};
}

/** The finished stats of the point p identifies. */
const ProcessorStats &
statsOf(const PaperResult &r, const SweepPoint &p)
{
    for (const SweepResult &res : r.points) {
        if (keyOf(res.point) == keyOf(p))
            return res.stats;
    }
    throw std::out_of_range("paper point " + p.label() + " was not run");
}

/** A matrix point: model on workload at the paper's count. */
const ProcessorStats &
at(const PaperResult &r, const std::string &workload,
   const std::string &model)
{
    return statsOf(r, makePoint(workload, model, nullptr, 0, r.insts,
                                r.seed));
}

/** FG+MLB-RET's IPC gain over base in one ablation cell. */
double
gain(const PaperResult &r, const std::string &workload, const Knob &knob,
     uint64_t value)
{
    auto [ci, base] = cellPoints(workload, knob, value, r.insts, r.seed);
    return statsOf(r, ci).ipc() / statsOf(r, base).ipc() - 1.0;
}

/** A section's title and the note saying what its numbers ran at. */
void
printHeader(std::ostream &os, const char *title, const std::string &runs,
            uint64_t seed)
{
    os << title << "\n"
       << "(synthetic SPEC95-analog workloads; " << runs << ", seed "
       << seed << "; see docs/workloads.md for the analogs)\n\n";
}

std::string
perRun(uint64_t insts)
{
    return std::to_string(insts) + " instructions per run";
}

void
renderTable1(std::ostream &os)
{
    ProcessorConfig cfg = ProcessorConfig::forModel("base");
    TextTable t;
    t.header({"parameter", "value"});
    t.row({"frontend latency",
           std::to_string(cfg.frontendLatency)
               + " cycles (fetch + dispatch)"});
    t.row({"trace predictor",
           "hybrid: 2^16-entry path-based (8-trace hist.) + 2^16 simple"});
    t.row({"trace cache",
           std::to_string(cfg.tcache.sizeBytes / 1024) + "kB / " +
           std::to_string(cfg.tcache.assoc) + "-way / LRU, line = " +
           std::to_string(cfg.tcache.lineInsts) + " instructions"});
    t.row({"instruction cache",
           std::to_string(cfg.icache.sizeBytes / 1024) + "kB / " +
           std::to_string(cfg.icache.assoc) + "-way / LRU, line = " +
           std::to_string(cfg.icache.lineInsts) + " instr, miss = " +
           std::to_string(cfg.icache.missPenalty) + " cycles"});
    t.row({"branch predictor",
           std::to_string(cfg.btbEntries / 1024) +
           "K-entry tagless BTB, 2-bit counters"});
    t.row({"BIT", std::to_string(cfg.bit.entries / 1024) + "K-entry, " +
           std::to_string(cfg.bit.assoc) + "-way assoc."});
    t.row({"trace construction b/w",
           "1 port to instr. cache, branch pred., BIT"});
    t.row({"processing elements",
           std::to_string(cfg.numPEs) + " PEs, " +
           std::to_string(cfg.issuePerPe) + "-way issue per PE"});
    t.row({"max trace length",
           std::to_string(cfg.selection.maxTraceLen) + " instructions"});
    t.row({"global result buses",
           std::to_string(cfg.globalBuses) + " buses, up to " +
           std::to_string(cfg.maxBusesPerPe) +
           " per PE, +1 cycle inter-PE bypass"});
    t.row({"cache buses",
           std::to_string(cfg.cacheBuses) + " buses, up to " +
           std::to_string(cfg.maxCacheBusesPerPe) + " per PE"});
    t.row({"data cache",
           std::to_string(cfg.dcache.sizeBytes / 1024) + "kB / " +
           std::to_string(cfg.dcache.assoc) + "-way / LRU, line = " +
           std::to_string(cfg.dcache.lineBytes) + "B, hit = " +
           std::to_string(cfg.dcache.hitLatency) + ", miss = +" +
           std::to_string(cfg.dcache.missPenalty) + " cycles"});
    t.row({"exec latencies",
           "agen 1, mem 2 (hit), ALU 1, mul 5, div 20 (R10000-like)"});
    t.row({"load re-issue penalty",
           std::to_string(cfg.loadReissuePenalty) + " cycle (snoop)"});

    os << "TABLE 1: trace processor configuration\n\n";
    t.print(os);
}

void
renderTable2(std::ostream &os, const PaperResult &r)
{
    printHeader(os, "TABLE 2: benchmarks (synthetic analogs)",
                "each run until it halts", r.seed);
    TextTable t;
    t.header({"benchmark", "static insts", "dynamic insts",
              "profile (Table 5 character targeted)"});
    for (const Table2Row &row : r.table2) {
        t.row({row.benchmark, std::to_string(row.staticInsts),
               std::to_string(row.dynamicInsts) + (row.halted ? "" : "+"),
               row.profile});
    }
    t.print(os);

    os << "\nPaper (Table 2): compress 104M, gcc 117M, go 133M, "
          "jpeg 166M, li 202M,\nm88ksim 120M, perl 108M, vortex "
          "101M dynamic instructions (full SPEC95 runs).\n";
}

void
renderTable3(std::ostream &os, const PaperResult &r)
{
    printHeader(os, "TABLE 3: IPC without control independence",
                perRun(r.insts), r.seed);
    TextTable t;
    t.header({"benchmark", "base", "base(ntb)", "base(fg)",
              "base(fg,ntb)"});
    std::map<std::string, std::vector<double>> per_model;
    for (const auto &name : workloadNames()) {
        std::vector<std::string> row = {name};
        for (const auto &m : selectionModels) {
            double ipc = at(r, name, m).ipc();
            per_model[m].push_back(ipc);
            row.push_back(fmtDouble(ipc, 2));
        }
        t.row(row);
    }
    std::vector<std::string> hm = {"Harmonic Mean"};
    for (const auto &m : selectionModels)
        hm.push_back(fmtDouble(harmonicMean(per_model[m]), 2));
    t.row(hm);
    t.print(os);

    os << "\nPaper (Table 3) harmonic means: base 4.26, base(ntb) "
          "4.18, base(fg) 4.17, base(fg,ntb) 4.11\n"
          "(shape: selection constraints alone cost a few percent "
          "of baseline IPC).\n";
}

void
renderTable4(std::ostream &os, const PaperResult &r)
{
    printHeader(os,
                "TABLE 4: impact of trace selection on trace length, trace "
                "mispredictions,\nand trace cache misses",
                perRun(r.insts), r.seed);
    for (const auto &m : selectionModels) {
        os << "--- " << m << " ---\n";
        TextTable t;
        std::vector<std::string> h = {""};
        std::vector<std::string> len = {"avg. trace length"};
        std::vector<std::string> misp = {"trace misp. /1k (rate)"};
        std::vector<std::string> tc = {"trace $ miss /1k (rate)"};
        for (const auto &name : workloadNames()) {
            const ProcessorStats &s = at(r, name, m);
            h.push_back(name);
            len.push_back(fmtDouble(s.avgRetiredTraceLen(), 1));
            double misp_rate = s.dispatchedTraces ?
                static_cast<double>(s.mispEvents) / s.dispatchedTraces :
                0.0;
            misp.push_back(fmtDouble(s.traceMispPerKilo(), 1) + " (" +
                           fmtPct(misp_rate, 1) + ")");
            double tc_rate = s.tcLookups ?
                static_cast<double>(s.tcMisses) / s.tcLookups : 0.0;
            tc.push_back(fmtDouble(s.tcMissPerKilo(), 1) + " (" +
                         fmtPct(tc_rate, 1) + ")");
        }
        t.header(h);
        t.row(len);
        t.row(misp);
        t.row(tc);
        t.print(os);
        os << '\n';
    }

    os << "Paper (Table 4) shape: additional selection constraints always\n"
          "decrease average trace length (base ~19.7-31.1 down by ~1.5-3.5\n"
          "instructions) and almost always increase trace mispredictions\n"
          "per 1000 instructions, while slightly reducing trace cache "
          "misses.\n";
}

void
renderTable5(std::ostream &os, const PaperResult &r)
{
    printHeader(os, "TABLE 5: conditional branch statistics",
                perRun(r.insts), r.seed);
    TextTable t;
    t.header({"", "frac.br", "frac.misp", "misp.rate", "dyn.reg",
              "stat.reg", "#cond.br", "ovrl.rate", "misp/1k"});
    for (const Table5Row &row : r.table5) {
        const BranchStudy &s = row.study;
        double ce = static_cast<double>(s.condExecs());
        double cm = static_cast<double>(s.condMisps());
        auto frac = [&](uint64_t n, double d) {
            return d > 0 ? fmtPct(n / d, 1) : std::string("-");
        };
        t.row({row.benchmark + "  FGCI<=32", frac(s.fgciSmall.execs, ce),
               frac(s.fgciSmall.misps, cm),
               fmtPct(s.fgciSmall.mispRate(), 1),
               fmtDouble(s.avgDynRegionSize(), 1),
               fmtDouble(s.avgStatRegionSize(), 1),
               fmtDouble(s.avgCondBranchesInRegion(), 1),
               fmtPct(s.overallMispRate(), 1),
               fmtDouble(s.mispPerKilo(), 1)});
        t.row({"         FGCI>32", frac(s.fgciLarge.execs, ce),
               frac(s.fgciLarge.misps, cm),
               fmtPct(s.fgciLarge.mispRate(), 1), "", "", "", "", ""});
        t.row({"         other fwd", frac(s.otherForward.execs, ce),
               frac(s.otherForward.misps, cm),
               fmtPct(s.otherForward.mispRate(), 1), "", "", "", "", ""});
        t.row({"         backward", frac(s.backward.execs, ce),
               frac(s.backward.misps, cm),
               fmtPct(s.backward.mispRate(), 1), "", "", "", "", ""});
    }
    t.print(os);

    os << "\nPaper (Table 5) reference, misp/1000 instr.: "
          "compress 13.5, gcc 4.7, go 10.4,\njpeg 3.8, li 5.1, "
          "m88ksim 1.2, perl 1.6, vortex 0.8. FGCI branches cover\n"
          "10-41% of branches (63%/61%/65% of mispredictions in "
          "compress/jpeg/m88ksim);\nbackward branches dominate li "
          "(61% of its mispredictions).\n";
}

void
renderFigure9(std::ostream &os, const PaperResult &r)
{
    printHeader(os,
                "FIGURE 9: performance impact of trace selection (% IPC vs "
                "base)",
                perRun(r.insts), r.seed);
    TextTable t;
    t.header({"benchmark", "base(ntb)", "base(fg)", "base(fg,ntb)"});
    for (const auto &name : workloadNames()) {
        double base = at(r, name, "base").ipc();
        std::vector<std::string> row = {name};
        for (const auto &m : selectionModels) {
            if (m != "base")
                row.push_back(fmtPct(at(r, name, m).ipc() / base - 1.0, 1));
        }
        t.row(row);
    }
    t.print(os);

    os << "\nPaper (Figure 9): base(ntb) within +1%/-10% (worst: "
          "li -10%, compress -5%);\nbase(fg) -3%..0%; base(fg,ntb) "
          "tracks the worse of its two components.\n";
}

void
renderFigure10(std::ostream &os, const PaperResult &r)
{
    printHeader(os,
                "FIGURE 10: performance of control independence (% IPC "
                "over base)",
                perRun(r.insts), r.seed);
    TextTable t;
    t.header({"benchmark", "RET", "MLB-RET", "FG", "FG+MLB-RET",
              "recoveries fg/cg/full (FG+MLB-RET)"});

    std::map<std::string, double> avg;
    double best_sum = 0.0;
    double heavy_sum = 0.0;
    int heavy_n = 0;

    for (const auto &name : workloadNames()) {
        double base = at(r, name, "base").ipc();
        std::vector<std::string> row = {name};
        double best = 0.0;
        for (const auto &m : ciModels) {
            double delta = at(r, name, m).ipc() / base - 1.0;
            avg[m] += delta;
            best = std::max(best, delta);
            row.push_back(fmtPct(delta, 1));
        }
        const ProcessorStats &s = at(r, name, "FG+MLB-RET");
        row.push_back(std::to_string(s.recoveriesFgci) + "/" +
                      std::to_string(s.recoveriesCgci) + "/" +
                      std::to_string(s.recoveriesFull));
        t.row(row);

        best_sum += best;
        // "Significant misprediction rates": more than ~2 trace
        // mispredictions per 1000 instructions (paper Section 6.2).
        if (at(r, name, "base").traceMispPerKilo() > 2.0) {
            heavy_sum += best;
            ++heavy_n;
        }
    }

    std::vector<std::string> av = {"average"};
    for (const auto &m : ciModels)
        av.push_back(fmtPct(avg[m] / workloadNames().size(), 1));
    av.push_back("");
    t.row(av);
    t.print(os);

    os << "\nsummary:\n"
       << "  best technique per benchmark, average improvement: "
       << fmtPct(best_sum / workloadNames().size(), 1) << '\n'
       << "  same, over misprediction-heavy benchmarks (>2 trace "
          "misp/1k): "
       << (heavy_n ? fmtPct(heavy_sum / heavy_n, 1) : std::string("-"))
       << " (" << heavy_n << " benchmarks)\n";

    os << "\nPaper (Figure 10 / Section 6.2): improvements range "
          "2%..25%; FG+MLB-RET is the\nbest average (~10%); "
          "best-per-benchmark averages 13%, and 17% over the\n"
          "benchmarks with significant misprediction rates. RET: "
          "~5% gcc, ~10% li/perl,\n~20% compress/go; jpeg gains "
          "only from FG; m88ksim/vortex are flat (<1% misp).\n";
}

void
renderAblations(std::ostream &os, const PaperResult &r)
{
    printHeader(os, "ABLATIONS: CI gain (FG+MLB-RET vs base) sensitivity",
                perRun(r.insts / 2), r.seed);
    for (const auto &name : ablationWorkloads) {
        os << "--- " << name << " ---\n";
        for (const Knob &knob : ablationKnobs) {
            TextTable t;
            std::vector<std::string> header = {knob.header};
            std::vector<std::string> row = {"CI gain"};
            for (uint64_t v : knob.values) {
                header.push_back(std::to_string(v));
                row.push_back(fmtPct(gain(r, name, knob, v), 1));
            }
            t.header(header);
            t.row(row);
            t.print(os);
        }
        os << '\n';
    }

    os << "Expected shape: CI gains grow with window size (the "
          "paper simulates 16 PEs\n\"in anticipation of future "
          "large instruction windows\") and with trace length\n"
          "(FGCI needs regions to fit); the re-convergence bound "
          "matters little once\npast the typical insertion "
          "length.\n";
}

void
writeClass(std::ostream &os, const char *name, const BranchClassStats &c)
{
    os << ", \"" << name << "\": {\"execs\": " << c.execs
       << ", \"misps\": " << c.misps << "}";
}

} // namespace

std::vector<SweepPoint>
paperPoints(uint64_t insts, uint64_t seed)
{
    std::vector<SweepPoint> points;
    std::set<PointKey> seen;
    auto add = [&](SweepPoint p) {
        if (!seen.insert(keyOf(p)).second)
            return;
        p.index = points.size();
        points.push_back(std::move(p));
    };
    std::vector<std::string> models = selectionModels;
    models.insert(models.end(), ciModels.begin(), ciModels.end());
    for (const auto &w : workloadNames()) {
        for (const auto &m : models)
            add(makePoint(w, m, nullptr, 0, insts, seed));
    }
    for (const auto &w : ablationWorkloads) {
        for (const Knob &knob : ablationKnobs) {
            for (uint64_t v : knob.values) {
                auto [ci, base] = cellPoints(w, knob, v, insts, seed);
                add(std::move(ci));
                add(std::move(base));
            }
        }
    }
    return points;
}

PaperResult
runPaper(uint64_t insts, uint64_t seed, const SweepEngine::Options &opts)
{
    PaperResult r;
    r.insts = insts;
    r.seed = seed;
    // The functional studies (Table 2 emulates every analog to
    // completion) share nothing with the sweep, so they run on their
    // own thread alongside it. A std::async future blocks in its
    // destructor, so this waits for them on every path out, an
    // exception from the sweep included.
    auto functional = std::async(std::launch::async, [insts, seed] {
        std::pair<std::vector<Table2Row>, std::vector<Table5Row>> t;
        for (const Workload &w : makeAllWorkloads(seed)) {
            Emulator emu(w.program);
            const uint64_t n = emu.run(w.maxInsts);
            t.first.push_back({w.name, w.program.size(), n, emu.halted(),
                               w.profileNote});
            t.second.push_back({w.name, studyBranches(w.program, insts)});
        }
        return t;
    });
    r.points = SweepEngine(opts).run(paperPoints(insts, seed));
    std::tie(r.table2, r.table5) = functional.get();
    return r;
}

void
writePaperJson(std::ostream &os, const PaperResult &r)
{
    os << "{\n"
       << "  \"schema\": \"tproc-paper-v1\",\n"
       << "  \"insts\": " << r.insts << ",\n"
       << "  \"seed\": " << r.seed << ",\n"
       << "  \"points\": [";
    for (size_t i = 0; i < r.points.size(); ++i) {
        os << (i ? "," : "") << "\n";
        writeResultObject(os, r.points[i], 4);
    }
    os << "\n  ],\n  \"table2\": [";
    for (size_t i = 0; i < r.table2.size(); ++i) {
        const Table2Row &row = r.table2[i];
        os << (i ? "," : "") << "\n    {\"benchmark\": \""
           << jsonEscape(row.benchmark)
           << "\", \"static_insts\": " << row.staticInsts
           << ", \"dynamic_insts\": " << row.dynamicInsts
           << ", \"halted\": " << (row.halted ? "true" : "false")
           << ", \"profile\": \"" << jsonEscape(row.profile) << "\"}";
    }
    os << "\n  ],\n  \"table5\": [";
    for (size_t i = 0; i < r.table5.size(); ++i) {
        const BranchStudy &s = r.table5[i].study;
        os << (i ? "," : "") << "\n    {\"benchmark\": \""
           << jsonEscape(r.table5[i].benchmark)
           << "\", \"insts\": " << s.insts;
        writeClass(os, "fgci_small", s.fgciSmall);
        writeClass(os, "fgci_large", s.fgciLarge);
        writeClass(os, "other_forward", s.otherForward);
        writeClass(os, "backward", s.backward);
        os << ", \"dyn_region_size_sum\": " << jsonNumber(s.dynRegionSizeSum)
           << ", \"stat_region_size_sum\": "
           << jsonNumber(s.statRegionSizeSum)
           << ", \"cond_branches_in_region_sum\": "
           << jsonNumber(s.condBranchesInRegionSum) << "}";
    }
    os << "\n  ]\n}\n";
}

void
renderPaper(std::ostream &os, const PaperResult &r)
{
    renderTable1(os);
    renderTable2(os, r);
    renderTable3(os, r);
    renderTable4(os, r);
    renderTable5(os, r);
    renderFigure9(os, r);
    renderFigure10(os, r);
    renderAblations(os, r);
}

} // namespace tproc::harness
