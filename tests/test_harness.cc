/**
 * @file
 * Sweep-engine tests: the StatDict merge/serialize layer, the JSON
 * reader (including its nesting bound), parallel results bit-identical
 * to serial runs, merged stats equality, per-point fault isolation,
 * and the result document: its round trip, shard-merge identity, its
 * integer checks, and a seeded mutator that every damaged copy must
 * either survive or fail cleanly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "harness/sweep.hh"

namespace tproc
{

TEST(StatDict, SetIncGetMerge)
{
    StatDict a;
    a.set("x", 2);
    a.inc("x", 3);
    a.inc("y");
    EXPECT_EQ(a.get("x"), 5);
    EXPECT_EQ(a.get("y"), 1);
    EXPECT_EQ(a.get("absent"), 0);
    EXPECT_TRUE(a.has("x"));
    EXPECT_FALSE(a.has("absent"));

    StatDict b;
    b.set("y", 10);
    b.set("z", 7);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 5);
    EXPECT_EQ(a.get("y"), 11);
    EXPECT_EQ(a.get("z"), 7);
    EXPECT_EQ(a.size(), 3u);
}

TEST(StatDict, EqualityIsOrderSensitiveAndExact)
{
    StatDict a, b;
    a.set("x", 1);
    a.set("y", 2);
    b.set("x", 1);
    b.set("y", 2);
    EXPECT_EQ(a, b);
    b.inc("y");
    EXPECT_NE(a, b);
}

TEST(StatDict, StatGroupSnapshot)
{
    uint64_t hits = 7;
    double rate = 0.5;
    StatGroup g("cache");
    g.add("hits", &hits);
    g.add("rate", &rate);

    StatDict d;
    g.snapshot(d);
    EXPECT_EQ(d.get("cache.hits"), 7);
    EXPECT_EQ(d.get("cache.rate"), 0.5);

    // Snapshots are point-in-time copies that merge like any dict.
    hits = 10;
    g.snapshot(d);
    EXPECT_EQ(d.get("cache.hits"), 10);
    StatDict other;
    other.set("cache.hits", 1);
    d.merge(other);
    EXPECT_EQ(d.get("cache.hits"), 11);
}

TEST(StatDict, JsonExport)
{
    StatDict d;
    d.set("cycles", 123);
    d.set("ipc", 2.5);
    std::ostringstream os;
    d.writeJson(os);
    EXPECT_EQ(os.str(), "{\n  \"cycles\": 123,\n  \"ipc\": 2.5\n}");

    StatDict empty;
    std::ostringstream os2;
    empty.writeJson(os2);
    EXPECT_EQ(os2.str(), "{}");

    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(jsonNumber(400000), "400000");
}

TEST(Json, ParsesScalarsArraysObjects)
{
    JsonValue v = parseJson(
        " {\"a\": 1.5, \"b\": [1, -2, 3e2], \"s\": \"x\\n\\\"y\", "
        "\"t\": true, \"f\": false, \"n\": null, \"o\": {\"k\": 7}} ");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.at("a").asNumber(), 1.5);
    ASSERT_EQ(v.at("b").asArray().size(), 3u);
    EXPECT_EQ(v.at("b").asArray()[1].asNumber(), -2);
    EXPECT_EQ(v.at("b").asArray()[2].asNumber(), 300);
    EXPECT_EQ(v.at("s").asString(), "x\n\"y");
    EXPECT_TRUE(v.at("t").asBool());
    EXPECT_FALSE(v.at("f").asBool());
    EXPECT_TRUE(v.at("n").isNull());
    EXPECT_EQ(v.at("o").at("k").asNumber(), 7);
    EXPECT_EQ(v.numberOr("absent", -1), -1);
    EXPECT_EQ(v.stringOr("absent", "d"), "d");
    EXPECT_EQ(v.find("absent"), nullptr);
    EXPECT_THROW(v.at("absent"), std::runtime_error);
    EXPECT_THROW(v.at("a").asString(), std::runtime_error);
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(parseJson("{\"a\": }"), std::runtime_error);
    EXPECT_THROW(parseJson("[1, 2"), std::runtime_error);
    EXPECT_THROW(parseJson("{\"a\": 1} trailing"), std::runtime_error);
    EXPECT_THROW(parseJson("\"unterminated"), std::runtime_error);
    EXPECT_THROW(parseJson("tru"), std::runtime_error);
    EXPECT_THROW(parseJson(""), std::runtime_error);
    EXPECT_THROW(parseJson("{"), std::runtime_error);
    EXPECT_THROW(parseJson("nope"), std::runtime_error);
    EXPECT_EQ(parseJson("{\"x\": 2}").at("x").asNumber(), 2);
}

TEST(Json, StatDictRoundTripIsExact)
{
    StatDict d;
    d.set("cycles", 123456789);
    d.set("ipc", 2.3456789012345678);
    d.set("zero", 0);
    std::ostringstream os;
    d.writeJson(os);
    StatDict back = statDictFromJson(parseJson(os.str()));
    EXPECT_EQ(back, d);

    // And the re-serialization is byte-identical: merge artifacts
    // depend on parse/print being a fixed point.
    std::ostringstream os2;
    back.writeJson(os2);
    EXPECT_EQ(os2.str(), os.str());
}

TEST(Json, NestingBeyondTheBoundFailsWithAnOffset)
{
    auto nested = [](int depth, char open, const std::string &inner,
                     char close) {
        std::string s;
        for (int i = 0; i < depth; ++i)
            s += open == '{' ? std::string("{\"k\": ") : std::string("[");
        s += inner;
        s += std::string(static_cast<size_t>(depth), close);
        return s;
    };
    EXPECT_EQ(parseJson(nested(maxJsonDepth, '[', "1", ']')).kind(),
              JsonValue::Kind::Array);
    EXPECT_EQ(parseJson(nested(maxJsonDepth, '{', "1", '}')).kind(),
              JsonValue::Kind::Object);
    for (char open : {'[', '{'}) {
        const char close = open == '[' ? ']' : '}';
        try {
            parseJson(nested(maxJsonDepth + 1, open, "1", close));
            ADD_FAILURE() << "accepted " << maxJsonDepth + 1 << " levels";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("nesting deeper than 64 "
                                                 "levels at byte"),
                      std::string::npos)
                << e.what();
        }
    }
    // A file of brackets fails as cleanly as any other bad input,
    // instead of recursing the parser off the stack.
    EXPECT_THROW(parseJson(std::string(200000, '[')), std::runtime_error);
}

TEST(ScopedErrorCapture, TurnsFatalIntoException)
{
    EXPECT_FALSE(ScopedErrorCapture::active());
    ScopedErrorCapture guard;
    EXPECT_TRUE(ScopedErrorCapture::active());
    EXPECT_THROW(fatal("synthetic failure %d", 42), SimError);
    try {
        panic("synthetic panic");
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("synthetic panic"),
                  std::string::npos);
    }
}

namespace
{

/** A small but non-trivial point set: 2 workloads x 2 models. */
std::vector<harness::SweepPoint>
smallPoints()
{
    auto points = harness::crossPoints({"compress", "li"},
                                       {"base", "FG+MLB-RET"}, 1, 15000,
                                       /*verify=*/true);
    for (auto &p : points)
        p.scale = 0.25;
    return points;
}

std::vector<harness::SweepResult>
runWith(unsigned threads, const std::vector<harness::SweepPoint> &points)
{
    harness::SweepEngine::Options opts;
    opts.threads = threads;
    return harness::SweepEngine(opts).run(points);
}

} // namespace

TEST(SweepEngine, ParallelBitIdenticalToSerial)
{
    auto points = smallPoints();
    auto serial = runWith(1, points);
    auto parallel = runWith(4, points);

    ASSERT_EQ(serial.size(), points.size());
    ASSERT_EQ(parallel.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        // Results come back in input order and every counter matches
        // exactly: scheduling must not leak into simulation state.
        EXPECT_EQ(serial[i].point.label(), parallel[i].point.label());
        EXPECT_EQ(harness::statsToDict(serial[i].stats),
                  harness::statsToDict(parallel[i].stats))
            << points[i].label();
        EXPECT_GT(serial[i].stats.retiredInsts, 0u);
    }

    // The mergeable layer agrees too, and sums what it should.
    StatDict ms = harness::mergeResults(serial);
    StatDict mp = harness::mergeResults(parallel);
    EXPECT_EQ(ms, mp);
    uint64_t insts = 0;
    for (const auto &r : serial)
        insts += r.stats.retiredInsts;
    EXPECT_EQ(ms.get("retiredInsts"), static_cast<double>(insts));
}

TEST(SweepEngine, RepeatedParallelRunsAreDeterministic)
{
    auto points = smallPoints();
    auto a = runWith(3, points);
    auto b = runWith(3, points);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(harness::statsToDict(a[i].stats),
                  harness::statsToDict(b[i].stats));
}

TEST(SweepEngine, FaultingPointIsIsolated)
{
    auto points = smallPoints();
    harness::SweepPoint bad;
    bad.workload = "nonesuch";        // makeWorkload fatal()s on this
    bad.model = "base";
    bad.maxInsts = 1000;
    points.insert(points.begin() + 1, bad);

    auto results = runWith(4, points);
    ASSERT_EQ(results.size(), points.size());

    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("unknown workload"),
              std::string::npos);

    // Every other point still ran to completion.
    for (size_t i = 0; i < results.size(); ++i) {
        if (i == 1)
            continue;
        EXPECT_TRUE(results[i].ok) << results[i].error;
        EXPECT_GT(results[i].stats.retiredInsts, 0u);
    }

    // The failed point contributes nothing to the merged stats.
    StatDict merged = harness::mergeResults(results);
    uint64_t insts = 0;
    for (const auto &r : results)
        if (r.ok)
            insts += r.stats.retiredInsts;
    EXPECT_EQ(merged.get("retiredInsts"), static_cast<double>(insts));
}

TEST(SweepEngine, UnknownModelIsIsolatedToo)
{
    std::vector<harness::SweepPoint> points =
        harness::crossPoints({"compress"}, {"base", "nonesuch"}, 1, 5000,
                             true);
    for (auto &p : points)
        p.scale = 0.25;
    auto results = runWith(2, points);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("unknown processor model"),
              std::string::npos);
}

TEST(SweepEngine, EffectiveThreadsClampsToBatch)
{
    harness::SweepEngine::Options opts;
    opts.threads = 8;
    harness::SweepEngine e(opts);
    EXPECT_EQ(e.effectiveThreads(3), 3u);
    EXPECT_EQ(e.effectiveThreads(100), 8u);
    EXPECT_EQ(e.effectiveThreads(0), 1u);
}

TEST(SweepShard, ShardsTileTheGridExactly)
{
    auto grid = harness::crossPoints(
        {"compress", "li", "go"}, {"base", "FG", "FG+MLB-RET"}, 7, 1000,
        true);
    ASSERT_EQ(grid.size(), 9u);
    for (size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(grid[i].index, i);

    for (unsigned count : {1u, 2u, 3u, 4u, 9u, 12u}) {
        std::vector<bool> covered(grid.size(), false);
        size_t total = 0;
        for (unsigned s = 0; s < count; ++s) {
            auto slice = harness::shardPoints(grid, s, count);
            for (const auto &p : slice) {
                ASSERT_LT(p.index, grid.size());
                // No overlap: each grid point lands in exactly one
                // shard, with its identity fully intact.
                EXPECT_FALSE(covered[p.index]) << "count=" << count;
                covered[p.index] = true;
                const auto &orig = grid[p.index];
                EXPECT_EQ(p.workload, orig.workload);
                EXPECT_EQ(p.model, orig.model);
                EXPECT_EQ(p.seed, orig.seed);
                EXPECT_EQ(p.maxInsts, orig.maxInsts);
            }
            total += slice.size();
        }
        // Union of shards == full grid.
        EXPECT_EQ(total, grid.size()) << "count=" << count;
        for (size_t i = 0; i < covered.size(); ++i)
            EXPECT_TRUE(covered[i]) << "count=" << count << " i=" << i;
    }
}

TEST(SweepShard, SliceIsStable)
{
    auto grid = harness::crossPoints({"compress", "li"},
                                     {"base", "FG"}, 1, 1000, true);
    auto a = harness::shardPoints(grid, 1, 3);
    auto b = harness::shardPoints(grid, 1, 3);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_THROW(harness::shardPoints(grid, 3, 3), std::invalid_argument);
    EXPECT_THROW(harness::shardPoints(grid, 0, 0), std::invalid_argument);
}

TEST(SweepStats, DictRoundTripsToProcessorStats)
{
    auto points = harness::crossPoints({"compress"}, {"base"}, 1, 5000,
                                       true);
    points[0].scale = 0.25;
    auto r = harness::SweepEngine::runPoint(points[0]);
    ASSERT_TRUE(r.ok) << r.error;
    StatDict d = harness::statsToDict(r.stats);
    ProcessorStats back = harness::statsFromDict(d);
    EXPECT_EQ(harness::statsToDict(back), d);
    EXPECT_EQ(back.retiredInsts, r.stats.retiredInsts);
    EXPECT_EQ(back.cycles, r.stats.cycles);

    // A truncated dict (missing counters) is an error, never zeros.
    StatDict partial;
    partial.set("cycles", 1);
    EXPECT_THROW(harness::statsFromDict(partial), std::runtime_error);
}

TEST(SweepJson, ResultsRoundTripBitExactly)
{
    auto points = smallPoints();
    auto results = runWith(2, points);

    std::ostringstream os;
    harness::writeMergedJson(os, results);
    std::istringstream is(os.str());
    auto back = harness::readResultsJson(is);

    ASSERT_EQ(back.size(), results.size());
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(back[i].point.index, results[i].point.index);
        EXPECT_EQ(back[i].point.label(), results[i].point.label());
        EXPECT_EQ(back[i].ok, results[i].ok);
        EXPECT_EQ(harness::statsToDict(back[i].stats),
                  harness::statsToDict(results[i].stats));
    }

    // Re-serializing the parsed results reproduces the bytes.
    std::ostringstream os2;
    harness::writeMergedJson(os2, back);
    EXPECT_EQ(os2.str(), os.str());
}

TEST(SweepMerge, ShardedMergeBitIdenticalToSerial)
{
    auto grid = smallPoints();

    // Serial unsharded reference.
    auto serial = runWith(1, grid);
    std::ostringstream ref;
    harness::writeMergedJson(ref, serial);

    // Run each shard separately (its own engine, its own document),
    // round-trip through JSON as CI does, then merge.
    std::vector<harness::SweepResult> collected;
    for (unsigned s = 0; s < 3; ++s) {
        auto slice = harness::shardPoints(grid, s, 3);
        auto results = runWith(2, slice);
        std::ostringstream artifact;
        harness::writeMergedJson(artifact, results);
        std::istringstream is(artifact.str());
        auto parsed = harness::readResultsJson(is);
        collected.insert(collected.end(), parsed.begin(), parsed.end());
    }
    std::ostringstream merged;
    harness::writeMergedJson(merged, collected);
    EXPECT_EQ(merged.str(), ref.str());
}

TEST(SweepEngine, OnResultSeesEveryPoint)
{
    auto points = smallPoints();
    std::vector<uint64_t> seen;
    harness::SweepEngine::Options opts;
    opts.threads = 3;
    opts.onResult = [&seen](const harness::SweepResult &r) {
        seen.push_back(r.point.index);
    };
    harness::SweepEngine(opts).run(points);
    ASSERT_EQ(seen.size(), points.size());
    std::sort(seen.begin(), seen.end());
    for (size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i);
}

TEST(SweepEngine, ResultsJsonIsWellFormed)
{
    auto points = harness::crossPoints({"compress"}, {"base"}, 1, 5000,
                                       true);
    points[0].scale = 0.25;
    auto results = runWith(1, points);
    std::ostringstream os;
    harness::writeMergedJson(os, results);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"workload\": \"compress\""), std::string::npos);
    EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
    EXPECT_NE(json.find("\"stats\": {"), std::string::npos);
    // Wall-clock facts stay out of the document.
    EXPECT_EQ(json.find("wall_seconds"), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

namespace
{

/** A small result document without simulating: an ok point whose
 *  counters are all distinct, a failed point with an escaped error,
 *  and an unlimited (UINT64_MAX) instruction budget. */
std::string
smallDocument()
{
    std::vector<harness::SweepResult> results(2);
    results[0].point.workload = "compress";
    results[0].point.model = "FG+MLB-RET";
    results[0].point.seed = 7;
    results[0].point.maxInsts = 20000;
    results[0].ok = true;
    StatDict d = harness::statsToDict(results[0].stats);
    for (size_t i = 0; i < d.entries().size(); ++i)
        d.set(d.entries()[i].name, static_cast<double>(1000 + 37 * i));
    results[0].stats = harness::statsFromDict(d);
    results[1].point.index = 1;
    results[1].point.workload = "gen:all:3";
    results[1].point.labelOverride = "gen:all:3/base(fg,ntb)";
    results[1].error = "retire verify: \"pc\" mismatch\n\tat 0x40";
    std::ostringstream os;
    harness::writeMergedJson(os, results);
    return os.str();
}

/** read, then write: the document a reader-writer pass produces. */
std::string
rewrite(const std::string &doc)
{
    std::istringstream is(doc);
    std::ostringstream os;
    harness::writeMergedJson(os, harness::readResultsJson(is));
    return os.str();
}

/** doc with the first `"key": <value>` after `after` given value. */
std::string
withValue(std::string doc, const std::string &after,
          const std::string &key, const std::string &value)
{
    const size_t at = doc.find("\"" + key + "\": ", doc.find(after));
    EXPECT_NE(at, std::string::npos) << key;
    const size_t from = at + key.size() + 4;
    doc.replace(from, doc.find_first_of(",\n", from) - from, value);
    return doc;
}

} // namespace

TEST(SweepJson, UnlimitedInstructionBudgetRoundTrips)
{
    // UINT64_MAX prints as 18446744073709551615 and parses to 2^64.
    const std::string doc = withValue(smallDocument(), "\"points\"",
                                      "max_insts", "18446744073709551615");
    std::istringstream is(doc);
    const auto back = harness::readResultsJson(is);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].point.maxInsts, UINT64_MAX);
    EXPECT_EQ(rewrite(doc), doc);
    EXPECT_EQ(rewrite(smallDocument()), smallDocument());
}

TEST(SweepJson, IntegerFieldsAreChecked)
{
    // Damaged integer fields. A plain cast would wrap ("index": -1
    // would merge as point 18446744073709551615) or be undefined
    // ("cycles": 1e999), so each must fail, naming its field.
    const struct
    {
        const char *key;
        const char *value;
    } bad[] = {
        {"index", "-1"},          {"cycles", "1e999"},
        {"seed", "1.5"},          {"seed", "-0.5"},
        {"max_insts", "1e20"},    {"retiredInsts", "-1e999"},
        {"index", "18446744073709555000"},
    };
    for (const auto &b : bad) {
        const std::string doc =
            withValue(smallDocument(), "\"points\"", b.key, b.value);
        std::istringstream is(doc);
        try {
            harness::readResultsJson(is);
            ADD_FAILURE() << b.key << " = " << b.value << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(b.key), std::string::npos)
                << e.what();
        }
    }
}

TEST(SweepJson, MutatedDocumentsReadOrFailCleanly)
{
    // Seeded byte flips, truncations and splices of a small document;
    // a third of the splices swap one value for a slice of the document
    // or a hostile number. A mutant either reads, and then one more
    // write/read pass is a fixed point (nothing read was wrapped or
    // rounded), or throws std::runtime_error; anything else (a crash,
    // a sanitizer report, another exception type) fails.
    const std::string doc = smallDocument();
    const std::string alphabet = "0123456789-+.eE\"\\{}[],: \n";
    const char *const tokens[] = {
        "-1", "-0", "1.5", "1e999", "-1e999", "1e20", "\"7\"", "null",
        "18446744073709551615", "18446744073709551616", "9007199254740993",
    };
    std::vector<size_t> values;     // where each member's value starts
    for (size_t at = doc.find("\": "); at != std::string::npos;
         at = doc.find("\": ", at + 1)) {
        values.push_back(at + 3);
    }
    Rng rng(20261018);
    int survived = 0, rejected = 0;
    for (int i = 0; i < 3000; ++i) {
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
            const size_t from = values[rng.below(values.size())];
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
        std::string once;
        try {
            once = rewrite(m);
        } catch (const std::runtime_error &) {
            ++rejected;
            continue;
        }
        ++survived;
        ASSERT_TRUE(rewrite(once) == once)
            << "mutant " << i << " read back differently:\n" << m;
    }
    // Both outcomes are exercised.
    EXPECT_GT(survived, 300);
    EXPECT_GT(rejected, 300);
}

} // namespace tproc
