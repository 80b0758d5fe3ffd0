#include "spans.hh"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <utility>

#include "common/stats.hh"

namespace perfbench
{

int
SpanRecorder::begin(const std::string &name, const std::string &layer,
                    int parent, int point, int thread)
{
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = parent;
    s.point = point;
    s.thread = thread;
    s.startNs = nowNs();
    std::lock_guard<std::mutex> lock(mutex);
    list.push_back(std::move(s));
    return static_cast<int>(list.size() - 1);
}

void
SpanRecorder::end(int id)
{
    const int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mutex);
    list.at(static_cast<size_t>(id)).endNs = t;
}

void
SpanRecorder::nest(int id, const std::string &layer, int64_t ns)
{
    std::lock_guard<std::mutex> lock(mutex);
    Span &s = list.at(static_cast<size_t>(id));
    s.nestedLayer = layer;
    s.nestedNs += ns;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return list;
}

std::vector<int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            kids.at(static_cast<size_t>(s.parent))
                .emplace_back(s.startNs, s.endNs);
    }
    std::vector<int64_t> self(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Union of the children's intervals, clipped to the parent.
        int64_t covered = 0;
        int64_t cur = s.startNs;
        for (const auto &[b, e] : iv) {
            const int64_t lo = std::max(b, cur);
            const int64_t hi = std::min(e, s.endNs);
            if (hi > lo) {
                covered += hi - lo;
                cur = hi;
            }
        }
        self[i] = (s.endNs - s.startNs) - covered - s.nestedNs;
    }
    return self;
}

std::map<std::string, int64_t>
layerTimes(const std::vector<Span> &spans)
{
    const std::vector<int64_t> self = selfTimes(spans);
    std::map<std::string, int64_t> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        out[spans[i].layer] += self[i];
        if (spans[i].nestedNs)
            out[spans[i].nestedLayer] += spans[i].nestedNs;
    }
    return out;
}

void
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write trace file " + path);
    const int64_t t0 = spans.empty() ? 0 : spans.front().startNs;
    os << std::fixed << std::setprecision(3)
       << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "") << "{\"name\":\""
           << tproc::jsonEscape(s.name)
           << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"ts\":"
           << (s.startNs - t0) / 1000.0
           << ",\"dur\":" << (s.endNs - s.startNs) / 1000.0
           << ",\"pid\":1,\"tid\":" << s.thread << ",\"args\":{\"id\":"
           << i << ",\"parent\":" << s.parent << ",\"point\":" << s.point;
        if (s.nestedNs) {
            os << ",\"nested_layer\":\"" << s.nestedLayer
               << "\",\"nested_ms\":" << s.nestedNs / 1e6;
        }
        os << "}}";
    }
    os << "\n]}\n";
    if (!os)
        throw std::runtime_error("short write to trace file " + path);
}

} // namespace perfbench
