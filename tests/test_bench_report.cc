/**
 * @file
 * Bench-report contract tests: BENCH_*.json schema presence, JSON
 * round-trip through the common parser/printer, non-timing determinism
 * across runs, options recovery from a report, baseline attachment,
 * and the StatDict counter handles.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "harness/bench_report.hh"

namespace tproc
{

namespace
{

harness::BenchReportOptions
tinyOptions()
{
    harness::BenchReportOptions opts;
    opts.insts = 1500;          // enough to retire traces everywhere
    opts.seed = 1;
    opts.model = "base";
    opts.reps = 1;
    opts.benchIndex = 99;
    opts.verify = true;
    return opts;
}

/** The report is expensive enough to share across schema tests. */
const JsonValue &
tinyReport()
{
    static const JsonValue report = harness::runBenchReport(tinyOptions(),
                                                            nullptr);
    return report;
}

} // anonymous namespace

TEST(BenchReport, SchemaFieldsPresent)
{
    const JsonValue &r = tinyReport();
    ASSERT_TRUE(r.find("schema"));
    EXPECT_EQ(r.at("schema").asString(), "tproc-bench-report-v1");
    for (const char *key :
         {"bench_index", "config", "host", "workloads", "sweep", "replay",
          "trace_compression", "summary", "identity"}) {
        EXPECT_TRUE(r.find(key)) << "missing top-level key: " << key;
    }

    const JsonValue &cfg = r.at("config");
    EXPECT_EQ(cfg.at("insts").asNumber(), 1500.0);
    EXPECT_EQ(cfg.at("model").asString(), "base");

    const auto &workloads = r.at("workloads").asArray();
    ASSERT_FALSE(workloads.empty());
    double cycle_sum = 0.0;
    for (const JsonValue &w : workloads) {
        for (const char *key : {"name", "cycles", "retired_insts", "ipc",
                                "wall_seconds", "cycles_per_sec"}) {
            EXPECT_TRUE(w.find(key)) << "missing workload key: " << key;
        }
        cycle_sum += w.at("cycles").asNumber();
    }
    EXPECT_EQ(r.at("summary").at("total_cycles").asNumber(), cycle_sum);

    // The sweep batch: 8 workloads x {base, FG+MLB-RET}, tiled 4x.
    const JsonValue &sweep = r.at("sweep");
    EXPECT_EQ(sweep.at("points").asNumber(), 64.0);
    EXPECT_GE(sweep.at("threads").asNumber(), 1.0);
    EXPECT_EQ(r.at("trace_compression").asArray().size(),
              workloads.size());

    // The batch widens the two identity flags; it adds none.
    const JsonValue &identity = r.at("identity");
    EXPECT_EQ(identity.asObject().size(), 2u);
    for (const char *key : {"stats_stable_across_reps", "replay_identical"}) {
        ASSERT_TRUE(identity.find(key));
        EXPECT_TRUE(identity.at(key).asBool())
            << "identity gate not green: " << key;
    }
}

TEST(BenchReport, JsonRoundTripPreservesEverything)
{
    const JsonValue &r = tinyReport();
    std::ostringstream os;
    writeJson(os, r);
    JsonValue back = parseJson(os.str());
    EXPECT_TRUE(harness::diffBenchReports(r, back).empty());

    // And the round trip of the round trip is textually identical.
    std::ostringstream os2;
    writeJson(os2, back);
    EXPECT_EQ(os.str(), os2.str());
}

TEST(BenchReport, NonTimingFieldsDeterministicAcrossRuns)
{
    JsonValue again = harness::runBenchReport(tinyOptions(), nullptr);
    std::vector<std::string> diffs =
        harness::diffBenchReports(tinyReport(), again);
    for (const std::string &d : diffs)
        ADD_FAILURE() << "non-timing divergence: " << d;

    // Timing fields must be excluded from the comparison view: wall
    // clocks differ between runs, yet the diff above is empty.
    JsonValue view = harness::benchNonTimingView(again);
    EXPECT_FALSE(view.find("sweep"));
    EXPECT_FALSE(view.at("summary").find("total_wall_seconds"));
    EXPECT_FALSE(view.at("summary").find("cycles_per_sec"));
    EXPECT_TRUE(view.at("summary").find("total_cycles"));
}

TEST(BenchReport, OptionsRecoverableFromReport)
{
    harness::BenchReportOptions opts =
        harness::optionsFromReport(tinyReport());
    EXPECT_EQ(opts.insts, 1500u);
    EXPECT_EQ(opts.seed, 1u);
    EXPECT_EQ(opts.model, "base");
    EXPECT_EQ(opts.reps, 1);
    EXPECT_EQ(opts.benchIndex, 99u);

    // BENCH_1 and BENCH_2 still carry config.pe_thread_list; the
    // checker reads them all the same.
    const JsonValue old = parseJson(
        R"({"bench_index": 2, "config": {"insts": 100000, "seed": 1,
            "model": "base", "pe_thread_list": [0, 2, 4], "reps": 3,
            "verify": true}})");
    const harness::BenchReportOptions old_opts =
        harness::optionsFromReport(old);
    EXPECT_EQ(old_opts.insts, 100000u);
    EXPECT_EQ(old_opts.reps, 3);
    EXPECT_EQ(old_opts.benchIndex, 2u);
}

TEST(BenchReport, OptionsRejectOutOfRangeIntegers)
{
    // A plain cast turned "insts": -1 into 2^64 - 1 instructions (a run
    // that never ends), 1e999 into 0, and "reps": 1e12 into INT_MIN.
    const struct
    {
        const char *field;
        const char *value;
    } cases[] = {
        {"insts", "-1"},         {"insts", "1e999"},
        {"insts", "1.5"},        {"seed", "-1e999"},
        {"reps", "1e12"},        {"reps", "0"},
        {"reps", "2147483648"},  {"bench_index", "4294967296"},
        {"bench_index", "-2"},
    };
    for (const auto &c : cases) {
        const std::string field = c.field;
        std::string doc =
            R"({"bench_index": 4, "config": {"insts": 100000, "seed": 1,
                "model": "base", "reps": 3, "verify": true}})";
        const size_t at = doc.find("\"" + field + "\": ") + field.size() + 4;
        doc.replace(at, doc.find_first_of(",}", at) - at, c.value);
        try {
            harness::optionsFromReport(parseJson(doc));
            ADD_FAILURE() << field << " = " << c.value << " was read";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("'" + field + "'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(BenchReport, MutatedReportsReadOrFailCleanly)
{
    // Seeded byte flips, truncations and splices of a report; a third
    // of the splices swap one value, often a config integer, for a
    // slice of the report or a hostile number. A mutant either parses
    // or throws std::runtime_error. One that parses either yields
    // options whose integers are the document's own numbers, with reps
    // at least 1, or throws std::runtime_error; and it diffs against
    // the report it came from either way round. Anything else (a
    // crash, a sanitizer report, another exception type) fails.
    std::ostringstream os;
    writeJson(os, tinyReport());
    const std::string doc = os.str();
    const std::string alphabet = "0123456789-+.eE\"\\{}[],: \n";
    const char *const tokens[] = {
        "-1", "-0", "0", "1.5", "1e999", "-1e999", "1e12", "1e20",
        "\"7\"", "null", "2147483648", "4294967296",
        "18446744073709551615", "18446744073709551616",
        "9007199254740993",
    };
    std::vector<size_t> values, config_values;
    for (size_t at = doc.find("\": "); at != std::string::npos;
         at = doc.find("\": ", at + 1)) {
        values.push_back(at + 3);
    }
    for (const char *key : {"\"insts\": ", "\"seed\": ", "\"reps\": ",
                            "\"bench_index\": "}) {
        const size_t at = doc.find(key);
        ASSERT_NE(at, std::string::npos) << key;
        config_values.push_back(at + std::strlen(key));
    }
    Rng rng(20261021);
    int parsed = 0, rejected = 0, read = 0;
    for (int i = 0; i < 2000; ++i) {
        std::string m = doc;
        const size_t at = rng.below(m.size());
        switch (i % 4) {
          case 0:
            for (uint64_t n = 1 + rng.below(3); n > 0; --n) {
                m[rng.below(m.size())] = rng.chance(0.5)
                    ? alphabet[rng.below(alphabet.size())]
                    : static_cast<char>(rng.below(256));
            }
            break;
          case 1:
            m.resize(at);
            break;
          case 2: {
            const std::vector<size_t> &pick =
                rng.chance(0.5) ? config_values : values;
            const size_t from = pick[rng.below(pick.size())];
            const size_t len = m.find_first_of(",\n", from) - from;
            m.replace(from, len,
                      rng.chance(0.5)
                          ? std::string(tokens[rng.below(std::size(tokens))])
                          : doc.substr(values[rng.below(values.size())],
                                       1 + rng.below(16)));
            break;
          }
          default: {
            const size_t from = rng.below(m.size());
            const size_t len = rng.below(m.size() - from + 1);
            const size_t cut = rng.below(m.size() - at + 1);
            m = m.substr(0, at) + doc.substr(from, len) +
                m.substr(at + cut);
            break;
          }
        }
        JsonValue v;
        try {
            v = parseJson(m);
        } catch (const std::runtime_error &) {
            ++rejected;
            continue;
        }
        ++parsed;
        try {
            const harness::BenchReportOptions opts =
                harness::optionsFromReport(v);
            ++read;
            const JsonValue &cfg = v.at("config");
            ASSERT_GE(opts.reps, 1) << m;
            ASSERT_EQ(static_cast<double>(opts.insts),
                      cfg.at("insts").asNumber());
            ASSERT_EQ(static_cast<double>(opts.seed),
                      cfg.at("seed").asNumber());
            ASSERT_EQ(opts.reps, cfg.at("reps").asNumber());
            ASSERT_EQ(opts.benchIndex, v.at("bench_index").asNumber());
        } catch (const std::runtime_error &) {
            ++rejected;
        }
        harness::diffBenchReports(tinyReport(), v);
        harness::diffBenchReports(v, tinyReport());
    }
    // Every outcome is exercised.
    EXPECT_GT(parsed, 300);
    EXPECT_GT(read, 100);
    EXPECT_GT(rejected, 300);
}

TEST(BenchReport, AttachBaselineComputesSpeedup)
{
    JsonValue report = tinyReport();    // copy
    harness::attachBaseline(report, tinyReport(), "self");
    ASSERT_TRUE(report.find("baseline"));
    const JsonValue &b = report.at("baseline");
    EXPECT_EQ(b.at("label").asString(), "self");
    EXPECT_DOUBLE_EQ(b.at("speedup_cycles_per_sec").asNumber(), 1.0);

    // The baseline block is timing-derived; it must not leak into the
    // non-timing comparison view.
    EXPECT_FALSE(harness::benchNonTimingView(report).find("baseline"));
}

TEST(BenchReport, DiffNamesEachOneSidedKeyAndComparesTheRest)
{
    // A key on one side only is one line at its own path; the keys
    // after it are still compared.
    const JsonValue a = parseJson(
        R"({"config": {"insts": 1, "old": [0]}, "gone": {}, "n": 1})");
    const JsonValue b =
        parseJson(R"({"config": {"insts": 1}, "n": 2, "new": true})");
    const std::vector<std::string> diffs = harness::diffBenchReports(a, b);
    const std::vector<std::string> want = {
        "$.config.old: present vs missing",
        "$.gone: present vs missing",
        "$.n: 1 vs 2",
        "$.new: missing vs present",
    };
    EXPECT_EQ(diffs, want);

    // Same keys, different order: a schema change.
    const JsonValue c = parseJson(R"({"n": 1, "m": 2})");
    const JsonValue d = parseJson(R"({"m": 2, "n": 1})");
    EXPECT_EQ(harness::diffBenchReports(c, d),
              std::vector<std::string>{"$: key order differs"});
}

TEST(StatDictCounter, HandleBumpsMatchNamedOps)
{
    StatDict byName, byHandle;
    byName.inc("cycles", 3);
    byName.inc("cycles");
    byName.set("insts", 10);

    StatDict::Counter cycles = byHandle.counter("cycles");
    StatDict::Counter insts = byHandle.counter("insts");
    cycles += 3;
    ++cycles;
    insts = 10;
    EXPECT_EQ(byName, byHandle);
    EXPECT_EQ(cycles.value(), 4.0);
    EXPECT_EQ(cycles.name(), "cycles");
    EXPECT_TRUE(cycles.valid());
    EXPECT_FALSE(StatDict::Counter().valid());
}

TEST(StatDictCounter, HandlesSurviveLaterInsertions)
{
    StatDict d;
    StatDict::Counter a = d.counter("a");
    // Grow the dict enough to force rehashes/reallocations.
    for (int i = 0; i < 200; ++i)
        d.inc("k" + std::to_string(i));
    a += 5;
    EXPECT_EQ(d.get("a"), 5.0);
}

} // namespace tproc
