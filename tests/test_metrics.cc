/**
 * @file
 * Telemetry tests: the IntervalSeries ring buffer (wraparound,
 * chronological readback, drop accounting, JSON round trip through
 * parseJson), phase timers (accumulation, nesting monotonicity, diff
 * windows), interval-boundary exactness of the processor recorder, the
 * metrics-on/metrics-off bit-identity contract, and the
 * tproc-metrics-v1 document builder + checker.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/hires_timer.hh"
#include "common/timeseries.hh"
#include "core/runner.hh"
#include "harness/metrics.hh"
#include "harness/sweep.hh"
#include "workloads/workloads.hh"

namespace tproc
{

namespace
{

std::vector<std::string>
abChannels()
{
    return {"a", "b"};
}

void
recordRow(IntervalSeries &s, uint64_t cycle, double a, double b)
{
    const double vals[] = {a, b};
    s.record(cycle, vals, 2);
}

} // namespace

// ---------------------------------------------------------------------
// IntervalSeries: construction and recording.
// ---------------------------------------------------------------------

TEST(IntervalSeries, DefaultConstructedIsDisabled)
{
    IntervalSeries s;
    EXPECT_FALSE(s.enabled());
    EXPECT_TRUE(s.empty());
    const double v = 0.0;
    EXPECT_THROW(s.record(0, &v, 1), std::logic_error);
}

TEST(IntervalSeries, RejectsZeroIntervalAndCapacity)
{
    EXPECT_THROW(IntervalSeries(0, abChannels(), 4),
                 std::invalid_argument);
    EXPECT_THROW(IntervalSeries(10, abChannels(), 0),
                 std::invalid_argument);
}

TEST(IntervalSeries, RejectsWrongRowWidth)
{
    IntervalSeries s(10, abChannels(), 4);
    const double one = 1.0;
    EXPECT_THROW(s.record(10, &one, 1), std::invalid_argument);
}

TEST(IntervalSeries, FillsThenWrapsOverwritingOldest)
{
    IntervalSeries s(10, abChannels(), 3);
    for (uint64_t i = 1; i <= 5; ++i) {
        recordRow(s, 10 * i, static_cast<double>(i),
                  static_cast<double>(10 * i));
    }
    // Capacity 3, 5 recorded: the ring holds the LAST three intervals
    // (30, 40, 50) in chronological order, and counted the two it
    // dropped.
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s.recorded(), 5u);
    EXPECT_EQ(s.dropped(), 2u);
    EXPECT_EQ(s.at(0).cycle, 30u);
    EXPECT_EQ(s.at(1).cycle, 40u);
    EXPECT_EQ(s.at(2).cycle, 50u);
    EXPECT_DOUBLE_EQ(s.at(0).values[0], 3.0);
    EXPECT_DOUBLE_EQ(s.at(2).values[1], 50.0);
    EXPECT_THROW(s.at(3), std::out_of_range);
}

TEST(IntervalSeries, WrapIsStableOverManyGenerations)
{
    IntervalSeries s(1, abChannels(), 4);
    for (uint64_t i = 0; i < 103; ++i)
        recordRow(s, i, static_cast<double>(i), 0.0);
    EXPECT_EQ(s.size(), 4u);
    EXPECT_EQ(s.recorded(), 103u);
    EXPECT_EQ(s.dropped(), 99u);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(s.at(i).cycle, 99u + i);
}

// ---------------------------------------------------------------------
// IntervalSeries: JSON round trip.
// ---------------------------------------------------------------------

TEST(IntervalSeries, JsonRoundTripThroughParseJson)
{
    IntervalSeries s(10, abChannels(), 3);
    for (uint64_t i = 1; i <= 5; ++i)
        recordRow(s, 10 * i, 0.25 * static_cast<double>(i), -1.5);

    // Serialize with the production writer, re-parse with the
    // production parser: the full emit/ingest path must be lossless,
    // including the recorded/dropped accounting a wrapped ring cannot
    // reconstruct from its surviving rows.
    std::ostringstream os;
    writeJson(os, s.toJson());
    const IntervalSeries back =
        IntervalSeries::fromJson(parseJson(os.str()));
    EXPECT_TRUE(back == s);
    EXPECT_EQ(back.recorded(), 5u);
    EXPECT_EQ(back.dropped(), 2u);
}

TEST(IntervalSeries, FromJsonRejectsMalformedRows)
{
    IntervalSeries s(10, abChannels(), 3);
    recordRow(s, 10, 1.0, 2.0);
    JsonValue j = s.toJson();

    // Truncate a sample row below channels + 1 cells.
    std::ostringstream os;
    writeJson(os, j);
    std::string text = os.str();
    JsonValue parsed = parseJson(text);
    JsonValue bad = JsonValue::makeObject();
    for (const auto &[key, member] : parsed.asObject()) {
        if (key == "samples") {
            JsonValue rows = JsonValue::makeArray();
            JsonValue row = JsonValue::makeArray();
            row.push(JsonValue::makeNumber(10));
            row.push(JsonValue::makeNumber(1.0));
            rows.push(std::move(row));
            bad.set(key, std::move(rows));
        } else {
            bad.set(key, member);
        }
    }
    EXPECT_THROW(IntervalSeries::fromJson(bad), std::runtime_error);
}

TEST(IntervalSeries, FromJsonRejectsInconsistentRecordedCount)
{
    IntervalSeries s(10, abChannels(), 3);
    recordRow(s, 10, 1.0, 2.0);
    recordRow(s, 20, 3.0, 4.0);
    JsonValue j = s.toJson();
    JsonValue bad = JsonValue::makeObject();
    for (const auto &[key, member] : j.asObject()) {
        if (key == "recorded")
            bad.set(key, JsonValue::makeNumber(1));
        else
            bad.set(key, member);
    }
    EXPECT_THROW(IntervalSeries::fromJson(bad), std::runtime_error);
}

// ---------------------------------------------------------------------
// Phase timers.
// ---------------------------------------------------------------------

TEST(PhaseTimers, AddAccumulatesInFirstUseOrder)
{
    PhaseTimers t;
    t.add("parse", 0.5);
    t.add("simulate", 1.0);
    t.add("parse", 0.25, 3);
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].name, "parse");
    EXPECT_DOUBLE_EQ(snap[0].seconds, 0.75);
    EXPECT_EQ(snap[0].count, 4u);
    EXPECT_EQ(snap[1].name, "simulate");
    EXPECT_EQ(snap[1].count, 1u);
}

TEST(PhaseTimers, NestedScopesAreMonotonic)
{
    // An outer scope's wall time must dominate the sum of the scopes
    // nested inside it: steady_clock is monotonic, so outer >= inner
    // always holds — the property that makes phase attribution
    // meaningful (simulate >= cycle_loop).
    PhaseTimers t;
    {
        auto outer = t.scope("outer");
        for (int i = 0; i < 3; ++i) {
            auto inner = t.scope("inner");
            volatile double sink = 0.0;
            for (int k = 0; k < 10000; ++k)
                sink += std::sqrt(static_cast<double>(k));
            (void)sink;
        }
    }
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    // First-use order: "inner" closes (and registers) before "outer".
    EXPECT_EQ(snap[0].name, "inner");
    EXPECT_EQ(snap[1].name, "outer");
    EXPECT_EQ(snap[0].count, 3u);
    EXPECT_GE(snap[0].seconds, 0.0);
    EXPECT_GE(snap[1].seconds, snap[0].seconds);
}

TEST(PhaseTimers, DiffIsolatesAWindow)
{
    PhaseTimers t;
    t.add("a", 1.0);
    t.add("b", 2.0);
    const auto before = t.snapshot();
    t.add("b", 0.5);
    t.add("c", 3.0, 2);
    const auto delta = PhaseTimers::diff(t.snapshot(), before);
    ASSERT_EQ(delta.size(), 2u);
    EXPECT_EQ(delta[0].name, "b");
    EXPECT_DOUBLE_EQ(delta[0].seconds, 0.5);
    EXPECT_EQ(delta[0].count, 1u);
    EXPECT_EQ(delta[1].name, "c");
    EXPECT_EQ(delta[1].count, 2u);
}

TEST(HiresTimer, SecondsNeverDecrease)
{
    HiresTimer timer;
    double last = timer.seconds();
    for (int i = 0; i < 100; ++i) {
        const double now = timer.seconds();
        EXPECT_GE(now, last);
        last = now;
    }
}

// ---------------------------------------------------------------------
// Processor recorder: boundary exactness and the identity contract.
// ---------------------------------------------------------------------

namespace
{

/** Run one workload with the given sampling interval. */
ProcessorStats
runSampled(uint64_t interval, RunMetrics *metrics)
{
    const Workload w = makeWorkload("compress", 1, 0.25);
    ProcessorConfig cfg = ProcessorConfig::forModel("base");
    cfg.metricsInterval = interval;
    return runConfig(w.program, cfg, 20000, nullptr, metrics);
}

} // namespace

TEST(ProcessorMetrics, IntervalBoundariesAreExact)
{
    RunMetrics m;
    ProcessorStats stats = runSampled(1000, &m);
    ASSERT_TRUE(m.series.enabled());
    ASSERT_FALSE(m.series.empty());
    EXPECT_EQ(m.series.channels(), Processor::metricsChannels());
    // Every sample but the last lands exactly at a multiple of the
    // interval — the recorder fires on a countdown, never drifting.
    // The last sample is either a boundary too or the end-of-run
    // partial flush at the run's final cycle (docs/metrics.md).
    for (size_t i = 0; i < m.series.size(); ++i) {
        const auto &sample = m.series.at(i);
        if (i + 1 < m.series.size()) {
            EXPECT_EQ(sample.cycle % 1000, 0u) << "sample " << i;
        }
        EXPECT_LE(sample.cycle, stats.cycles);
        ASSERT_EQ(sample.values.size(),
                  Processor::metricsChannels().size());
    }
    const auto &last = m.series.at(m.series.size() - 1);
    if (stats.cycles % 1000 != 0) {
        // Partial tail: flushed exactly at halt, nothing dropped.
        EXPECT_EQ(last.cycle, stats.cycles);
    } else {
        EXPECT_EQ(last.cycle % 1000, 0u);
    }
    // Full run at interval 1000 over <= 20k insts: nothing dropped,
    // one sample per boundary plus the partial tail if there is one.
    EXPECT_EQ(m.series.dropped(), 0u);
    EXPECT_EQ(m.series.recorded(),
              stats.cycles / 1000 + (stats.cycles % 1000 ? 1 : 0));
}

TEST(ProcessorMetrics, SampledIpcIsConsistentWithTotals)
{
    RunMetrics m;
    ProcessorStats stats = runSampled(1000, &m);
    ASSERT_EQ(m.series.dropped(), 0u);
    // With the end-of-run partial flush, the samples tile the whole
    // run: per-sample retirements (ipc * cycles covered) must sum to
    // exactly the run's total, to rounding.
    double sampled_insts = 0.0;
    uint64_t prev_cycle = 0;
    for (size_t i = 0; i < m.series.size(); ++i) {
        const auto &sample = m.series.at(i);
        const uint64_t covered = sample.cycle - prev_cycle;
        EXPECT_GT(covered, 0u) << "sample " << i;
        EXPECT_LE(covered, 1000u) << "sample " << i;
        sampled_insts +=
            sample.values[0] * static_cast<double>(covered);
        prev_cycle = sample.cycle;
    }
    EXPECT_EQ(prev_cycle, stats.cycles);
    EXPECT_NEAR(sampled_insts, static_cast<double>(stats.retiredInsts),
                0.5);
}

TEST(ProcessorMetrics, StatsBitIdenticalWithMetricsOnOrOff)
{
    // THE contract: sampling is a pure observer. Every counter must
    // match bit for bit between a silent run, a sampled run, and a
    // sampled run with an absurdly fine interval.
    const ProcessorStats off = runSampled(0, nullptr);
    RunMetrics m;
    const ProcessorStats coarse = runSampled(4096, &m);
    const ProcessorStats fine = runSampled(7, nullptr);
    EXPECT_EQ(harness::statsToDict(off), harness::statsToDict(coarse));
    EXPECT_EQ(harness::statsToDict(off), harness::statsToDict(fine));
    EXPECT_FALSE(m.series.empty());
}

// ---------------------------------------------------------------------
// tproc-metrics-v1 document builder / checker.
// ---------------------------------------------------------------------

namespace
{

harness::SweepResult
sampledResult(uint64_t index)
{
    harness::SweepPoint p;
    p.workload = "compress";
    p.model = "base";
    p.maxInsts = 20000;
    p.scale = 0.25;
    p.metricsInterval = 2048;
    p.index = index;
    return harness::SweepEngine::runPoint(p);
}

} // namespace

TEST(MetricsDoc, BuildEmitsOrderedPointsAndValidates)
{
    std::vector<harness::SweepResult> results;
    results.push_back(sampledResult(7));
    results.push_back(sampledResult(3));
    ASSERT_TRUE(results[0].ok) << results[0].error;
    ASSERT_TRUE(results[0].series.enabled());

    PhaseTimers t;
    t.add("simulate", 1.25, 2);
    const JsonValue doc =
        harness::buildMetricsDoc(2048, results, t.snapshot());

    EXPECT_EQ(harness::checkMetricsDoc(doc), "");
    const auto &points = doc.at("points").asArray();
    ASSERT_EQ(points.size(), 2u);
    // Sorted by grid index regardless of completion order.
    EXPECT_EQ(points[0].at("index").asNumber(), 3.0);
    EXPECT_EQ(points[1].at("index").asNumber(), 7.0);

    // The document survives the production writer/parser round trip
    // and still validates.
    std::ostringstream os;
    writeJson(os, doc);
    EXPECT_EQ(harness::checkMetricsDoc(parseJson(os.str())), "");
}

TEST(MetricsDoc, BuildSkipsUnsampledAndFailedPoints)
{
    std::vector<harness::SweepResult> results;
    harness::SweepResult plain;   // never ran: no series, not ok
    results.push_back(plain);
    const JsonValue doc =
        harness::buildMetricsDoc(2048, results, {});
    EXPECT_EQ(doc.at("points").asArray().size(), 0u);
    EXPECT_EQ(harness::checkMetricsDoc(doc), "");
}

TEST(MetricsDoc, CheckerRejectsDrift)
{
    std::vector<harness::SweepResult> results;
    results.push_back(sampledResult(0));
    ASSERT_TRUE(results[0].ok);
    JsonValue doc = harness::buildMetricsDoc(2048, results, {});

    // Wrong schema tag.
    JsonValue bad = JsonValue::makeObject();
    for (const auto &[key, member] : doc.asObject()) {
        bad.set(key, key == "schema"
                         ? JsonValue::makeString("tproc-metrics-v0")
                         : member);
    }
    EXPECT_NE(harness::checkMetricsDoc(bad), "");

    // Interval disagreement between document and series.
    JsonValue bad2 = JsonValue::makeObject();
    for (const auto &[key, member] : doc.asObject()) {
        bad2.set(key, key == "interval" ? JsonValue::makeNumber(999)
                                        : member);
    }
    EXPECT_NE(harness::checkMetricsDoc(bad2), "");
}

// ---------------------------------------------------------------------
// Sweep-level identity: artifacts are byte-identical with metrics on.
// ---------------------------------------------------------------------

TEST(MetricsIdentity, MergedArtifactBytesUnchangedBySampling)
{
    auto mergedBytes = [](uint64_t interval) {
        harness::SweepPoint p;
        p.workload = "compress";
        p.model = "base";
        p.maxInsts = 20000;
        p.scale = 0.25;
        p.metricsInterval = interval;
        std::vector<harness::SweepResult> results;
        results.push_back(harness::SweepEngine::runPoint(p));
        EXPECT_TRUE(results[0].ok) << results[0].error;
        std::ostringstream os;
        harness::writeMergedJson(os, results);
        return os.str();
    };
    // The result document — the bytes the serial == parallel `cmp`
    // steps compare — must not know whether telemetry was on.
    EXPECT_EQ(mergedBytes(0), mergedBytes(512));
}

} // namespace tproc
