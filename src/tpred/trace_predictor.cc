#include "tpred/trace_predictor.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tproc
{

TracePredictor::TracePredictor(const Params &p)
    : pathTable(p.pathEntries), simpleTable(p.simpleEntries)
{
    panic_if((p.pathEntries & (p.pathEntries - 1)) != 0 ||
             (p.simpleEntries & (p.simpleEntries - 1)) != 0,
             "TracePredictor: table sizes must be powers of two");
}

std::optional<TraceId>
TracePredictor::predict(const PathHistory &hist) const
{
    const Entry &pe = pathTable[pathIndex(hist)];
    const Entry &se = simpleTable[simpleIndex(hist)];

    // Hybrid selection: the path-based component wins when it has a
    // confident entry; otherwise fall back to the simple component.
    if (pe.valid && (pe.conf > 0 || !se.valid))
        return pe.pred();
    if (se.valid)
        return se.pred();
    if (pe.valid)
        return pe.pred();
    return std::nullopt;
}

void
TracePredictor::trainEntry(Entry &e, const TraceId &actual)
{
    if (e.valid && e.pred() == actual) {
        if (e.conf < Entry::maxConf)
            ++e.conf;
    } else if (!e.valid || e.conf == 0) {
        e.startPc = actual.startPc;
        e.outcomes = actual.outcomes;
        e.numBranches = actual.numBranches;
        e.conf = 1;
        e.valid = true;
    } else {
        --e.conf;
    }
}

void
TracePredictor::update(const PathHistory &hist, const TraceId &actual)
{
    trainEntry(pathTable[pathIndex(hist)], actual);
    trainEntry(simpleTable[simpleIndex(hist)], actual);
}

void
TracePredictor::reset()
{
    std::fill(pathTable.begin(), pathTable.end(), Entry{});
    std::fill(simpleTable.begin(), simpleTable.end(), Entry{});
    predictions = 0;
}

} // namespace tproc
