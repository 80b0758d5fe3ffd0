/**
 * @file
 * Outside-in span recorder for the traced benchmark run.
 *
 * Spans are recorded by the benchmark around its own calls into each
 * simulator layer (nothing inside the simulator is instrumented). Each
 * span carries a name, the layer it is charged to, start and end on
 * the steady clock, its parent, the point it belongs to and the thread
 * that ran it. Spans live in memory and are written once, at the end,
 * as a Chrome trace-event file that opens offline in chrome://tracing
 * or Perfetto.
 *
 * Per-cycle and per-instruction calls are far too hot for spans; they
 * go into count+total Aggregates, and the span that encloses them
 * records the nested aggregate time so self-time arithmetic can charge
 * it to the inner layer.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds (std::chrono::steady_clock). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Count + total time of a hot call that is not worth a span. */
struct Aggregate
{
    uint64_t count = 0;
    int64_t totalNs = 0;

    void
    add(int64_t ns)
    {
        ++count;
        totalNs += ns;
    }
};

struct Span
{
    std::string name;
    std::string layer;      //!< layer the span's self time is charged to
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1;        //!< index of the enclosing span; -1 = root
    int point = -1;         //!< point id (-1 = not tied to one point)
    int thread = 0;         //!< recording thread (0 = main)
    /** Time of hot calls nested in this span that belong to another
     *  layer (an Aggregate's total), and that layer. */
    int64_t nestedNs = 0;
    std::string nestedLayer;
};

/** Thread-safe in-memory span store. */
class SpanRecorder
{
  public:
    /** Open a span now; returns its id. */
    int begin(const std::string &name, const std::string &layer,
              int parent, int point, int thread);
    /** Close span id now. */
    void end(int id);
    /** Charge nested aggregate time of another layer to span id. */
    void nest(int id, const std::string &layer, int64_t ns);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

  private:
    mutable std::mutex mutex;
    std::vector<Span> list;
};

/** RAII span: opened on construction, closed on destruction, so a
 *  span around a call that throws still gets its end. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec_, const std::string &name,
               const std::string &layer, int parent, int point, int thread)
        : rec(rec_), spanId(rec_.begin(name, layer, parent, point, thread))
    {}
    ~ScopedSpan() { rec.end(spanId); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return spanId; }

  private:
    SpanRecorder &rec;
    int spanId;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by its children (the union, so overlapping children running
 * on parallel threads are not counted twice) minus its nested
 * aggregate time.
 */
std::vector<int64_t> selfTimes(const std::vector<Span> &spans);

/** Self time summed per layer; nested aggregate time is charged to the
 *  aggregate's own layer. */
std::map<std::string, int64_t> layerTimes(const std::vector<Span> &spans);

/** Write spans as a Chrome trace-event JSON document. */
void writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
