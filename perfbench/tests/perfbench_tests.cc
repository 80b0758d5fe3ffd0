/**
 * @file
 * The benchmark's own tests: the median and percentile rule, self-time
 * arithmetic on a synthetic span tree, the metric-name grammar over
 * BENCHMARK.json, and bit-identical stats through the timing
 * ArchSource wrapper. Usage: perfbench_tests <path/to/BENCHMARK.json>.
 * Exit 0 when every check passes.
 */

#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "bench.hh"
#include "common/stats.hh"
#include "core/processor.hh"
#include "emulator/emulator.hh"
#include "harness/sweep.hh"
#include "spans.hh"
#include "summary.hh"
#include "timed_source.hh"
#include "workloads/workloads.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testMedianAndPercentiles()
{
    check(near(median({3, 1, 2}), 2.0), "odd median");
    check(near(median({4, 1, 3, 2}), 2.5), "even median");
    check(near(median({}), 0.0), "empty median");
    check(near(quantile({1, 2, 3, 4, 5}, 0.75), 4.0), "p75 of 1..5");
    check(near(quantile({10, 20}, 0.25), 12.5), "interpolated quantile");
    // Highest percentile with at least ten samples beyond it.
    check(reportPercentile(39) == 0.0, "39 samples: median only");
    check(reportPercentile(40) == 75.0, "40 samples: p75");
    check(reportPercentile(99) == 75.0, "99 samples: p75");
    check(reportPercentile(100) == 90.0, "100 samples: p90");
    check(reportPercentile(200) == 95.0, "200 samples: p95");
    check(reportPercentile(1000) == 99.0, "1000 samples: p99");
    check(reportPercentile(10000) == 99.9, "10000 samples: p99.9");
    std::vector<double> v(40);
    for (size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<double>(i + 1);
    const std::string d = describeTiming(v, "s");
    check(d.find("p75") != std::string::npos &&
              d.find("n=40") != std::string::npos,
          "describeTiming states the percentile and sample count: " + d);
    const std::string d5 = describeTiming({1, 2, 3, 4, 5}, "s");
    check(d5.find("n=5") != std::string::npos &&
              d5.find("median 3 s") != std::string::npos,
          "describeTiming with few samples: " + d5);
}

Span
span(const char *layer, int64_t b, int64_t e, int parent, int thread = 0)
{
    Span s;
    s.name = layer;
    s.layer = layer;
    s.startNs = b;
    s.endNs = e;
    s.parent = parent;
    s.thread = thread;
    return s;
}

void
testSelfTimes()
{
    // root [0,100] (harness)
    //   a [10,40] (workloads)
    //   b [30,70] (core), overlapping a on a parallel thread,
    //       with 5 ns of nested emulator aggregate
    //     c [50,60] (replay)
    std::vector<Span> spans = {
        span("harness", 0, 100, -1),
        span("workloads", 10, 40, 0),
        span("core", 30, 70, 0, 1),
        span("replay", 50, 60, 2, 1),
    };
    spans[2].nestedNs = 5;
    spans[2].nestedLayer = "emulator";
    const std::vector<int64_t> self = selfTimes(spans);
    check(self[0] == 40, "root self = 100 - union(a, b) = 40");
    check(self[1] == 30, "leaf self = duration");
    check(self[2] == 25, "b self = 40 - c 10 - nested 5");
    check(self[3] == 10, "c self = 10");
    const auto layers = layerTimes(spans);
    check(layers.at("emulator") == 5, "nested time charged to its layer");
    int64_t sum = 0;
    for (const auto &[name, ns] : layers)
        sum += ns;
    // Serial parts add up to the root; the overlap (a and b both cover
    // [30,40]) is counted once per thread.
    check(sum == 100 + 10, "layer sum = root + parallel overlap");

    // A child sticking out of its parent is clipped to it.
    std::vector<Span> clip = {span("harness", 0, 10, -1),
                              span("core", 5, 20, 0)};
    check(selfTimes(clip)[0] == 5, "child clipped to parent interval");

    SpanRecorder rec;
    {
        ScopedSpan outer(rec, "outer", "harness", -1, -1, 0);
        ScopedSpan inner(rec, "inner", "core", outer.id(), 0, 0);
    }
    const auto rs = rec.spans();
    check(rs.size() == 2 && rs[1].parent == 0 && rs[0].endNs >= rs[1].endNs &&
              rs[1].endNs >= rs[1].startNs,
          "ScopedSpan records nested intervals");
}

void
testMetricNames(const std::string &path)
{
    std::ifstream is(path);
    check(static_cast<bool>(is), "cannot open " + path);
    if (!is)
        return;
    std::stringstream ss;
    ss << is.rdbuf();
    const tproc::JsonValue doc = tproc::parseJson(ss.str());

    std::set<std::string> names;
    auto visit = [&](const char *section, bool traced) {
        for (const auto &m : doc.at(section).asArray()) {
            const std::string name = m.at("name").asString();
            check(validMetricName(name), "metric name grammar: " + name);
            check(names.insert(name).second, "duplicate name: " + name);
            if (name == "setup_s")
                continue;   // run.py measures set-up from outside
            bool declared = false;
            for (const auto &d : metricDefs()) {
                if (name == d.name) {
                    declared = true;
                    check(m.at("unit").asString() == d.unit,
                          "unit of " + name);
                    check(d.traced == traced, "section of " + name);
                }
            }
            check(declared, "BENCHMARK.json metric not emitted: " + name);
        }
    };
    visit("end_to_end", false);
    visit("per_layer", true);
    check(names.count("setup_s") == 1, "setup_s is an end-to-end metric");
    for (const auto &d : metricDefs())
        check(names.count(d.name) == 1,
              std::string("emitted metric missing from BENCHMARK.json: ") +
                  d.name);
    size_t nw = 0;
    for (const auto &w : doc.at("workloads").asArray()) {
        const std::string name = w.at("name").asString();
        check(validMetricName(name), "workload name grammar: " + name);
        check(nw < benchWorkloads().size() && benchWorkloads()[nw] == name,
              "workload order: " + name);
        ++nw;
    }
    check(nw == benchWorkloads().size(), "workload count");
    check(!validMetricName("") && !validMetricName("_x") &&
              !validMetricName("a b") &&
              !validMetricName(std::string(65, 'a')) &&
              validMetricName(std::string(64, 'a')) &&
              validMetricName("core.cycle_self_ns") && validMetricName("9-a"),
          "grammar edge cases");
}

void
testTimedSourceIsTransparent()
{
    for (const char *model : {"base", "FG+MLB-RET"}) {
        for (const char *w : {"compress", "li", "gen:fgci+noisy+loops:3"}) {
            tproc::Workload wl = tproc::makeWorkload(w, 5);
            tproc::ProcessorConfig cfg =
                tproc::ProcessorConfig::forModel(model);
            cfg.verifyRetirement = true;
            tproc::Processor plain(wl.program, cfg);
            const tproc::ProcessorStats a = plain.run(30000);

            Aggregate agg;
            tproc::Processor wrapped(
                wl.program, cfg,
                std::make_unique<TimedArchSource>(
                    std::make_unique<tproc::Emulator>(wl.program), agg));
            const tproc::ProcessorStats b = wrapped.run(30000);
            const std::string what = std::string(w) + "/" + model;
            check(tproc::harness::statsToDict(a) ==
                      tproc::harness::statsToDict(b),
                  "wrapper leaves stats bit-identical: " + what);
            check(statsDigest(a) == statsDigest(b), "digest: " + what);
            check(agg.count == b.retiredInsts,
                  "one timed step per retired instruction: " + what);
        }
    }
    tproc::ProcessorStats s;
    const uint64_t d0 = statsDigest(s);
    s.fetchStallCycles = 1;
    check(statsDigest(s) != d0, "digest covers every counter");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    testMedianAndPercentiles();
    testSelfTimes();
    testMetricNames(argc > 1 ? argv[1] : "BENCHMARK.json");
    testTimedSourceIsTransparent();
    if (failures) {
        std::cerr << failures << " check(s) failed\n";
        return 1;
    }
    std::cout << "perfbench_tests: all checks passed\n";
    return 0;
}
