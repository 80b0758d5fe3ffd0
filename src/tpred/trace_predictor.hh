/**
 * @file
 * Next-trace predictor (Jacobson, Rotenberg & Smith, MICRO-30 1997), per
 * Table 1: a hybrid of a 2^16-entry path-based predictor indexed by a
 * hash of the last 8 trace ids, and a 2^16-entry simple predictor indexed
 * by the last trace id alone. Entries carry the full predicted TraceId
 * (start pc + branch outcomes) plus a 2-bit hysteresis counter, packed
 * into a trivially constructible 16-byte record whose all-zero value is
 * an invalid entry, so each table is one value-initialised (zeroed)
 * allocation with no per-entry constructor.
 *
 * Prediction uses the speculative path history maintained by the
 * frontend (rebuilt on misprediction recovery); training happens on the
 * retired trace stream.
 */

#ifndef TPROC_TPRED_TRACE_PREDICTOR_HH
#define TPROC_TPRED_TRACE_PREDICTOR_HH

#include <cstddef>
#include <array>
#include <optional>
#include <type_traits>
#include <vector>

#include "trace/trace.hh"

namespace tproc
{

/** Rolling path history of trace-id hashes (depth 8). */
class PathHistory
{
  public:
    static constexpr size_t depth = 8;

    void
    push(const TraceId &id)
    {
        for (size_t i = depth - 1; i > 0; --i)
            h[i] = h[i - 1];
        h[0] = id.hash();
    }

    void clear() { h.fill(0); }

    /** Fold into a table index seed (most recent trace weighted most). */
    uint64_t
    fold() const
    {
        uint64_t acc = 0;
        for (size_t i = 0; i < depth; ++i)
            acc = acc * 0x100000001b3ull ^ (h[i] >> (i * 3));
        return acc;
    }

    /** Hash of just the most recent trace (simple predictor index). */
    uint64_t last() const { return h[0]; }

    bool operator==(const PathHistory &o) const { return h == o.h; }
    bool operator!=(const PathHistory &o) const { return !(*this == o); }

  private:
    std::array<uint64_t, depth> h{};
};

class TracePredictor
{
  public:
    struct Params
    {
        size_t pathEntries = 1 << 16;
        size_t simpleEntries = 1 << 16;
    };

    TracePredictor() : TracePredictor(Params()) {}
    explicit TracePredictor(const Params &p);

    /** Predict the next trace for the given path history; nullopt when
     *  neither component has a valid entry. */
    std::optional<TraceId> predict(const PathHistory &hist) const;

    /** Train both components with the actual next trace. */
    void update(const PathHistory &hist, const TraceId &actual);

    void reset();

    uint64_t predictions = 0;

  private:
    /** One table entry: the predicted TraceId's fields, a 2-bit
     *  confidence counter (saturating at 0 and maxConf) and a valid
     *  flag. All zeroes is an invalid entry. */
    struct Entry
    {
        static constexpr uint8_t maxConf = 3;

        Addr startPc;
        uint32_t outcomes;
        uint8_t numBranches;
        uint8_t conf;
        bool valid;

        TraceId
        pred() const
        {
            TraceId id;
            id.startPc = startPc;
            id.outcomes = outcomes;
            id.numBranches = numBranches;
            return id;
        }
    };
    static_assert(sizeof(Entry) == 16, "Entry must stay 16 bytes");
    static_assert(std::is_trivially_default_constructible_v<Entry>,
                  "tables are value-initialised, not constructed");

    void trainEntry(Entry &e, const TraceId &actual);

    size_t pathIndex(const PathHistory &h) const
    {
        return h.fold() & (pathTable.size() - 1);
    }
    size_t simpleIndex(const PathHistory &h) const
    {
        return (h.last() * 0x9e3779b97f4a7c15ull >> 16) &
            (simpleTable.size() - 1);
    }

    std::vector<Entry> pathTable;
    std::vector<Entry> simpleTable;
};

} // namespace tproc

#endif // TPROC_TPRED_TRACE_PREDICTOR_HH
