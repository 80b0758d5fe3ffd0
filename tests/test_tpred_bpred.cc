/** @file Next-trace predictor and branch predictor tests. */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "bpred/branch_predictor.hh"
#include "common/random.hh"
#include "common/sat_counter.hh"
#include "tpred/trace_predictor.hh"

namespace tproc
{

namespace
{

TraceId
id(Addr pc, uint32_t bits = 0)
{
    TraceId t;
    t.startPc = pc;
    t.outcomes = bits;
    t.numBranches = 4;
    return t;
}

} // namespace

TEST(TracePredictor, LearnsRepeatingSequence)
{
    TracePredictor tp;
    std::vector<TraceId> seq = {id(100), id(200, 5), id(300), id(400, 2)};

    PathHistory hist;
    // Train a few laps.
    for (int lap = 0; lap < 8; ++lap) {
        for (const auto &t : seq) {
            tp.update(hist, t);
            hist.push(t);
        }
    }
    // Now predictions should follow the cycle.
    int correct = 0;
    for (const auto &t : seq) {
        auto p = tp.predict(hist);
        if (p && *p == t)
            ++correct;
        tp.update(hist, t);
        hist.push(t);
    }
    EXPECT_EQ(correct, 4);
}

TEST(TracePredictor, PathHistoryDisambiguates)
{
    // A follows X in one context and B in another; only path history can
    // tell them apart.
    TracePredictor tp;
    TraceId x = id(10), a = id(20), b = id(30), c1 = id(40), c2 = id(50);

    PathHistory h1;     // context 1: c1 -> x -> a
    PathHistory h2;     // context 2: c2 -> x -> b
    for (int lap = 0; lap < 10; ++lap) {
        h1.clear();
        h1.push(c1);
        tp.update(h1, x);
        h1.push(x);
        tp.update(h1, a);

        h2.clear();
        h2.push(c2);
        tp.update(h2, x);
        h2.push(x);
        tp.update(h2, b);
    }

    PathHistory q1;
    q1.push(c1);
    q1.push(x);
    auto p1 = tp.predict(q1);
    ASSERT_TRUE(p1.has_value());
    EXPECT_EQ(*p1, a);

    PathHistory q2;
    q2.push(c2);
    q2.push(x);
    auto p2 = tp.predict(q2);
    ASSERT_TRUE(p2.has_value());
    EXPECT_EQ(*p2, b);
}

TEST(TracePredictor, NoPredictionWhenCold)
{
    TracePredictor tp;
    PathHistory h;
    h.push(id(12345));
    EXPECT_FALSE(tp.predict(h).has_value());
}

namespace
{

/**
 * The next-trace predictor as it was before its entries were packed:
 * 32-byte entries holding a TraceId and a 2-bit SatCounter, reset by
 * clearing valid flags. Same indexing and training rules; the packed
 * TracePredictor must predict exactly what this model predicts.
 */
class ReferenceTracePredictor
{
  public:
    explicit ReferenceTracePredictor(const TracePredictor::Params &p)
        : pathTable(p.pathEntries), simpleTable(p.simpleEntries)
    {}

    std::optional<TraceId>
    predict(const PathHistory &hist) const
    {
        const Entry &pe = pathTable[pathIndex(hist)];
        const Entry &se = simpleTable[simpleIndex(hist)];
        if (pe.valid && (pe.conf.value() > 0 || !se.valid))
            return pe.pred;
        if (se.valid)
            return se.pred;
        if (pe.valid)
            return pe.pred;
        return std::nullopt;
    }

    void
    update(const PathHistory &hist, const TraceId &actual)
    {
        train(pathTable[pathIndex(hist)], actual);
        train(simpleTable[simpleIndex(hist)], actual);
    }

    void
    reset()
    {
        for (auto &e : pathTable)
            e.valid = false;
        for (auto &e : simpleTable)
            e.valid = false;
    }

  private:
    struct Entry
    {
        bool valid = false;
        TraceId pred;
        SatCounter conf{2, 0};
    };

    static void
    train(Entry &e, const TraceId &actual)
    {
        if (e.valid && e.pred == actual) {
            e.conf.increment();
        } else if (!e.valid) {
            e.valid = true;
            e.pred = actual;
            e.conf.set(1);
        } else if (e.conf.value() == 0) {
            e.pred = actual;
            e.conf.set(1);
        } else {
            e.conf.decrement();
        }
    }

    size_t
    pathIndex(const PathHistory &h) const
    {
        return h.fold() & (pathTable.size() - 1);
    }

    size_t
    simpleIndex(const PathHistory &h) const
    {
        return (h.last() * 0x9e3779b97f4a7c15ull >> 16) &
            (simpleTable.size() - 1);
    }

    std::vector<Entry> pathTable;
    std::vector<Entry> simpleTable;
};

std::string
show(const std::optional<TraceId> &p)
{
    return p ? p->str() : "nullopt";
}

/**
 * Drive the packed predictor and the reference with one seeded stream
 * of update/predict/reset calls and compare every prediction. Traces
 * come from a small pool and usually follow a fixed successor of the
 * previous trace, so entries are confirmed until they saturate, then
 * contested until they are replaced.
 */
void
expectSamePredictions(const TracePredictor::Params &params,
                      uint64_t seed, int calls)
{
    TracePredictor packed(params);
    ReferenceTracePredictor ref(params);
    Rng rng(seed);

    std::vector<TraceId> pool;
    for (int i = 0; i < 12; ++i) {
        TraceId t;
        t.startPc = 64 * rng.below(40);
        t.outcomes = static_cast<uint32_t>(rng.below(16));
        t.numBranches = static_cast<uint8_t>(rng.below(5));
        pool.push_back(t);
    }
    std::vector<size_t> successor(pool.size());
    for (auto &s : successor)
        s = rng.below(pool.size());

    PathHistory hist;
    size_t last = 0;
    for (int call = 0; call < calls; ++call) {
        const uint64_t op = rng.below(1000);
        if (op == 0) {
            packed.reset();
            ref.reset();
        } else if (op < 100) {
            // A probe off the running path.
            PathHistory probe;
            for (uint64_t n = rng.below(PathHistory::depth + 1); n > 0; --n)
                probe.push(pool[rng.below(pool.size())]);
            ASSERT_EQ(packed.predict(probe), ref.predict(probe))
                << "seed " << seed << " call " << call << ": "
                << show(packed.predict(probe)) << " vs "
                << show(ref.predict(probe));
        } else {
            ASSERT_EQ(packed.predict(hist), ref.predict(hist))
                << "seed " << seed << " call " << call << ": "
                << show(packed.predict(hist)) << " vs "
                << show(ref.predict(hist));
            last = rng.chance(0.8) ? successor[last]
                                   : rng.below(pool.size());
            packed.update(hist, pool[last]);
            ref.update(hist, pool[last]);
            hist.push(pool[last]);
        }
    }
}

} // namespace

TEST(TracePredictor, PackedEntriesPredictLikeTheReference)
{
    // 2^6-entry tables: 12 traces over 8-deep paths collide constantly.
    TracePredictor::Params small;
    small.pathEntries = 64;
    small.simpleEntries = 64;
    for (uint64_t seed = 1; seed <= 20; ++seed)
        expectSamePredictions(small, seed, 20000);
}

TEST(TracePredictor, PackedEntriesPredictLikeTheReferenceAtTable1Sizes)
{
    for (uint64_t seed = 101; seed <= 103; ++seed)
        expectSamePredictions(TracePredictor::Params(), seed, 5000);
}

TEST(BranchPredictor, TwoBitHysteresis)
{
    BranchPredictor bp(1024);
    Addr pc = 77;
    // Initialized weakly not-taken.
    EXPECT_FALSE(bp.predict(pc));
    bp.update(pc, true);
    EXPECT_TRUE(bp.predict(pc));
    bp.update(pc, true);            // strongly taken
    bp.update(pc, false);
    EXPECT_TRUE(bp.predict(pc));    // hysteresis survives one not-taken
    bp.update(pc, false);
    EXPECT_FALSE(bp.predict(pc));
}

TEST(BranchPredictor, BiasedStreamAccuracy)
{
    BranchPredictor bp;
    Rng rng(5);
    uint64_t misp = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        bool taken = rng.chance(0.9);
        if (bp.predictAndTrain(i % 64, taken) != taken)
            ++misp;
    }
    double rate = static_cast<double>(misp) / n;
    EXPECT_GT(rate, 0.05);
    EXPECT_LT(rate, 0.20);      // ~2(1-p) for a 2-bit counter
}

TEST(BranchPredictor, IndirectTargets)
{
    BranchPredictor bp;
    EXPECT_EQ(bp.predictTarget(50), invalidAddr);
    bp.updateTarget(50, 777);
    EXPECT_EQ(bp.predictTarget(50), 777u);
    bp.updateTarget(50, 888);
    EXPECT_EQ(bp.predictTarget(50), 888u);  // last-target behaviour
}

} // namespace tproc
