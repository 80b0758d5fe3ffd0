/**
 * @file
 * Lightweight statistics helpers: named scalar counters grouped per
 * component, plus table-formatting utilities used by the bench drivers.
 */

#ifndef TPROC_COMMON_STATS_HH
#define TPROC_COMMON_STATS_HH

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace tproc
{

/** A named scalar statistic. */
struct Stat
{
    std::string name;
    double value = 0.0;
};

/**
 * An insertion-ordered dictionary of named scalars: the mergeable,
 * serializable stats layer. Simulation components report into (or are
 * snapshotted into) a StatDict; dicts from independent runs merge by
 * summing, and any dict exports as a JSON object. All counters in this
 * codebase are integer-valued, so double holds them exactly (< 2^53) and
 * equality comparisons are well defined.
 */
class StatDict
{
  public:
    /**
     * A typed handle to one counter, resolved once and bumped many
     * times without re-hashing the name. Handles are stable across
     * further insertions (they hold an index, not a pointer), but are
     * invalidated if the owning dict is destroyed or moved — resolve
     * them once at construction of the component that bumps them.
     */
    class Counter
    {
      public:
        Counter() = default;

        double
        operator+=(double delta)
        {
            return d->order[idx].value += delta;
        }

        Counter &
        operator++()
        {
            d->order[idx].value += 1.0;
            return *this;
        }

        double
        operator=(double value)
        {
            return d->order[idx].value = value;
        }

        double value() const { return d->order[idx].value; }
        const std::string &name() const { return d->order[idx].name; }
        bool valid() const { return d != nullptr; }

      private:
        friend class StatDict;
        Counter(StatDict *d_, size_t idx_) : d(d_), idx(idx_) {}

        StatDict *d = nullptr;
        size_t idx = 0;
    };

    /**
     * Resolve (creating at zero if absent) a counter handle. The name
     * is hashed exactly once here; all subsequent bumps through the
     * handle are a single indexed add.
     */
    Counter counter(std::string_view name);

    /** Set (or overwrite) a value. */
    void set(const std::string &name, double value);

    /** Add to a value, creating it at zero first if absent. */
    void inc(const std::string &name, double delta = 1.0);

    /** Value by name; 0.0 if absent. */
    double get(const std::string &name) const;

    bool has(const std::string &name) const;

    /** Sum other into this (union of keys; other's new keys append). */
    void merge(const StatDict &other);

    /** Serialize as a JSON object; indent is the base indentation. */
    void writeJson(std::ostream &os, int indent = 0) const;

    /** All entries in insertion order. */
    const std::vector<Stat> &entries() const { return order; }

    size_t size() const { return order.size(); }
    bool empty() const { return order.empty(); }

    bool operator==(const StatDict &o) const;
    bool operator!=(const StatDict &o) const { return !(*this == o); }

  private:
    std::vector<Stat> order;
    std::unordered_map<std::string, size_t> index;
};

/** Escape a string for inclusion in a JSON string literal (no quotes). */
std::string jsonEscape(const std::string &s);

/** Format a double as a JSON number (integers without trailing .0). */
std::string jsonNumber(double v);

/**
 * Minimal JSON document: just enough to read the documents this
 * codebase writes (sweep results, BENCH reports, golden snapshots,
 * telemetry) back in. Objects preserve key order so a parse/serialize
 * round trip of a StatDict is bit-identical. Accessors throw
 * std::runtime_error on a kind mismatch so malformed artifacts surface
 * as reportable errors rather than silent zeros.
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    Kind kind() const { return k; }
    bool isNull() const { return k == Kind::Null; }
    bool isObject() const { return k == Kind::Object; }
    bool isArray() const { return k == Kind::Array; }

    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;
    const std::vector<std::pair<std::string, JsonValue>> &asObject() const;

    /** Object member by key; null if absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Object member by key; throws std::runtime_error if absent. */
    const JsonValue &at(const std::string &key) const;

    /** Convenience: member as number/string/bool with a default. */
    double numberOr(const std::string &key, double dflt) const;
    std::string stringOr(const std::string &key,
                         const std::string &dflt) const;
    bool boolOr(const std::string &key, bool dflt) const;

    static JsonValue makeNull() { return JsonValue(); }
    static JsonValue makeBool(bool v);
    static JsonValue makeNumber(double v);
    static JsonValue makeString(std::string v);
    static JsonValue makeArray();
    static JsonValue makeObject();

    /** Array append / object append (no duplicate-key check). */
    void push(JsonValue v);
    void set(std::string key, JsonValue v);

  private:
    Kind k = Kind::Null;
    bool boolVal = false;
    double numVal = 0.0;
    std::string strVal;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;
};

/**
 * Nesting depth parseJson accepts. The deepest document this codebase
 * writes (tproc-metrics-v1) nests 6 levels; the bound keeps a file of
 * brackets from recursing the parser off the stack.
 */
constexpr int maxJsonDepth = 64;

/**
 * Parse one JSON document. Throws std::runtime_error (with a byte
 * offset) on malformed input, trailing garbage, or nesting deeper than
 * maxJsonDepth.
 */
JsonValue parseJson(const std::string &text);

/** Rebuild a StatDict from a JSON object of name -> number. */
StatDict statDictFromJson(const JsonValue &v);

/**
 * Serialize a JsonValue as pretty-printed JSON: 2-space indentation,
 * object keys in insertion order, numbers via jsonNumber. parseJson of
 * the output reproduces the value exactly, so write/parse/write is
 * bit-stable — the property the BENCH_<n>.json trajectory check relies
 * on. @param indent base indentation of the value itself.
 */
void writeJson(std::ostream &os, const JsonValue &v, int indent = 0);

/**
 * A group of related statistics with pretty-printing. Components embed a
 * StatGroup and register references to their counters for reporting.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name_) : name(std::move(name_)) {}

    /** Register a counter for reporting; returns its index. */
    void add(const std::string &stat_name, const uint64_t *counter);
    void add(const std::string &stat_name, const double *counter);

    /** Write "group.stat value" lines to os. */
    void dump(std::ostream &os) const;

    /** Copy current counter values into a dict as "group.stat" keys. */
    void snapshot(StatDict &into) const;

    const std::string &groupName() const { return name; }

  private:
    struct Entry
    {
        std::string name;
        std::string fullName;   //!< "group.stat", composed once at add()
        const uint64_t *u64 = nullptr;
        const double *f64 = nullptr;
    };

    std::string name;
    std::vector<Entry> entries;
};

/**
 * Fixed-width text table builder for the bench drivers; reproduces the
 * paper's tables as aligned ASCII.
 */
class TextTable
{
  public:
    /** Set column headers (first call). */
    void header(std::vector<std::string> cells);
    /** Append a data row. */
    void row(std::vector<std::string> cells);
    /** Render with column alignment. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::vector<std::string>> rows;
    bool hasHeader = false;
};

/** Format a double with the given precision (helper for tables). */
std::string fmtDouble(double v, int prec);

/** Format a percentage, e.g. 12.3%. */
std::string fmtPct(double frac, int prec = 1);

/** Harmonic mean of a vector of positive values. */
double harmonicMean(const std::vector<double> &values);

} // namespace tproc

#endif // TPROC_COMMON_STATS_HH
