/**
 * @file
 * Lightweight statistics helpers: the mergeable StatDict of named
 * counters, a minimal JSON reader and writer for the documents the
 * tools exchange, and the table formatting the paper driver prints.
 */

#ifndef TPROC_COMMON_STATS_HH
#define TPROC_COMMON_STATS_HH

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
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
 * codebase writes (sweep results, paper documents, golden snapshots,
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

    /** Member as a string; dflt if absent or not a string. */
    std::string stringOr(const std::string &key,
                         const std::string &dflt) const;

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
 * bit-stable and two runs' explorer reports compare byte for byte.
 * @param indent base indentation of the value itself.
 */
void writeJson(std::ostream &os, const JsonValue &v, int indent = 0);

/**
 * Fixed-width text table builder for the paper driver; reproduces the
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
