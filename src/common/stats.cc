#include "common/stats.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <unordered_set>

namespace tproc
{

void
StatDict::set(const std::string &name, double value)
{
    auto it = index.find(name);
    if (it != index.end()) {
        order[it->second].value = value;
        return;
    }
    index.emplace(name, order.size());
    order.push_back({name, value});
}

void
StatDict::inc(const std::string &name, double delta)
{
    auto it = index.find(name);
    if (it != index.end()) {
        order[it->second].value += delta;
        return;
    }
    index.emplace(name, order.size());
    order.push_back({name, delta});
}

double
StatDict::get(const std::string &name) const
{
    auto it = index.find(name);
    return it == index.end() ? 0.0 : order[it->second].value;
}

bool
StatDict::has(const std::string &name) const
{
    return index.count(name) != 0;
}

void
StatDict::merge(const StatDict &other)
{
    // Fast path: dicts produced by the same schema (every sweep-result
    // merge, every golden accumulation) carry identical keys in
    // identical order, so the sums need no hashing at all — one name
    // comparison and an indexed add per entry. Fall back to keyed
    // insertion from the first position that disagrees.
    size_t i = 0;
    if (order.size() == other.order.size()) {
        for (; i < order.size(); ++i) {
            if (order[i].name != other.order[i].name)
                break;
            order[i].value += other.order[i].value;
        }
        if (i == order.size())
            return;
        // Undo the positional sums applied before the mismatch and
        // redo the whole merge keyed (correctness over speed on the
        // mixed-schema path).
        for (size_t j = 0; j < i; ++j)
            order[j].value -= other.order[j].value;
    }
    for (const auto &s : other.order)
        inc(s.name, s.value);
}

void
StatDict::writeJson(std::ostream &os, int indent) const
{
    const std::string pad(indent, ' ');
    os << "{";
    for (size_t i = 0; i < order.size(); ++i) {
        os << (i ? "," : "") << '\n' << pad << "  \""
           << jsonEscape(order[i].name) << "\": "
           << jsonNumber(order[i].value);
    }
    if (!order.empty())
        os << '\n' << pad;
    os << "}";
}

bool
StatDict::operator==(const StatDict &o) const
{
    if (order.size() != o.order.size())
        return false;
    for (size_t i = 0; i < order.size(); ++i) {
        if (order[i].name != o.order[i].name ||
            order[i].value != o.order[i].value) {
            return false;
        }
    }
    return true;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    // Integer-valued doubles (the common case: counters) print without a
    // fraction; everything else keeps full round-trip precision. Range
    // check before the cast: int64 conversion of NaN or out-of-range
    // values is undefined.
    if (v >= -9.0e15 && v <= 9.0e15 && v == static_cast<int64_t>(v))
        return std::to_string(static_cast<int64_t>(v));
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

bool
JsonValue::asBool() const
{
    if (k != Kind::Bool)
        throw std::runtime_error("json: value is not a bool");
    return boolVal;
}

double
JsonValue::asNumber() const
{
    if (k != Kind::Number)
        throw std::runtime_error("json: value is not a number");
    return numVal;
}

const std::string &
JsonValue::asString() const
{
    if (k != Kind::String)
        throw std::runtime_error("json: value is not a string");
    return strVal;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    if (k != Kind::Array)
        throw std::runtime_error("json: value is not an array");
    return arr;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::asObject() const
{
    if (k != Kind::Object)
        throw std::runtime_error("json: value is not an object");
    return obj;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (k != Kind::Object)
        return nullptr;
    for (const auto &kv : obj) {
        if (kv.first == key)
            return &kv.second;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    if (!v)
        throw std::runtime_error("json: missing key '" + key + "'");
    return *v;
}

std::string
JsonValue::stringOr(const std::string &key, const std::string &dflt) const
{
    const JsonValue *v = find(key);
    return v && v->k == Kind::String ? v->strVal : dflt;
}

JsonValue
JsonValue::makeBool(bool v)
{
    JsonValue j;
    j.k = Kind::Bool;
    j.boolVal = v;
    return j;
}

JsonValue
JsonValue::makeNumber(double v)
{
    JsonValue j;
    j.k = Kind::Number;
    j.numVal = v;
    return j;
}

JsonValue
JsonValue::makeString(std::string v)
{
    JsonValue j;
    j.k = Kind::String;
    j.strVal = std::move(v);
    return j;
}

JsonValue
JsonValue::makeArray()
{
    JsonValue j;
    j.k = Kind::Array;
    return j;
}

JsonValue
JsonValue::makeObject()
{
    JsonValue j;
    j.k = Kind::Object;
    return j;
}

void
JsonValue::push(JsonValue v)
{
    if (k != Kind::Array)
        throw std::runtime_error("json: push on non-array");
    arr.push_back(std::move(v));
}

void
JsonValue::set(std::string key, JsonValue v)
{
    if (k != Kind::Object)
        throw std::runtime_error("json: set on non-object");
    obj.emplace_back(std::move(key), std::move(v));
}

namespace
{

/** Recursive-descent parser over a string; tracks offset for errors. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text_) : text(text_) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipSpace();
        if (pos != text.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("json: " + what + " at byte " +
                                 std::to_string(pos));
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    char
    peek()
    {
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    bool
    consume(const char *lit)
    {
        size_t n = std::strlen(lit);
        if (text.compare(pos, n, lit) != 0)
            return false;
        pos += n;
        return true;
    }

    JsonValue
    parseValue()
    {
        skipSpace();
        switch (peek()) {
          case '{':
          case '[':
            return parseContainer();
          case '"': return JsonValue::makeString(parseString());
          case 't':
            if (consume("true"))
                return JsonValue::makeBool(true);
            fail("bad literal");
          case 'f':
            if (consume("false"))
                return JsonValue::makeBool(false);
            fail("bad literal");
          case 'n':
            if (consume("null"))
                return JsonValue::makeNull();
            fail("bad literal");
          default:
            return parseNumber();
        }
    }

    /** An object or array, one nesting level below its parent. */
    JsonValue
    parseContainer()
    {
        if (depth == maxJsonDepth) {
            fail("nesting deeper than " + std::to_string(maxJsonDepth) +
                 " levels");
        }
        ++depth;
        JsonValue v = peek() == '{' ? parseObject() : parseArray();
        --depth;
        return v;
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue obj = JsonValue::makeObject();
        skipSpace();
        if (peek() == '}') {
            ++pos;
            return obj;
        }
        // A repeated key would be read as its first copy by find() and
        // as its last by statDictFromJson(); no writer emits one.
        std::unordered_set<std::string> keys;
        for (;;) {
            skipSpace();
            const size_t key_at = pos;
            std::string key = parseString();
            if (!keys.insert(key).second) {
                pos = key_at;
                fail("repeated key '" + key + "'");
            }
            skipSpace();
            expect(':');
            obj.set(std::move(key), parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue arr = JsonValue::makeArray();
        skipSpace();
        if (peek() == ']') {
            ++pos;
            return arr;
        }
        for (;;) {
            arr.push(parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos >= text.size())
                fail("unterminated string");
            char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                fail("unterminated escape");
            char e = text[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    fail("bad \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text[pos++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // Our writer only emits \u00xx for control bytes; decode
                // the Latin-1 range and refuse anything wider rather
                // than mis-encode it.
                if (cp > 0xff)
                    fail("unsupported \\u escape > 0xff");
                out += static_cast<char>(cp);
                break;
              }
              default:
                fail("bad escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        size_t start = pos;
        if (peek() == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
                text[pos] == '+' || text[pos] == '-')) {
            ++pos;
        }
        if (pos == start)
            fail("expected a value");
        char *end = nullptr;
        const std::string num = text.substr(start, pos - start);
        double v = std::strtod(num.c_str(), &end);
        if (!end || *end != '\0')
            fail("bad number '" + num + "'");
        // jsonNumber cannot write an infinity back as JSON, so a
        // literal beyond double's range is damage, not a value.
        if (!std::isfinite(v))
            fail("number out of range '" + num + "'");
        return JsonValue::makeNumber(v);
    }

    const std::string &text;
    size_t pos = 0;
    int depth = 0;
};

} // namespace

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

StatDict
statDictFromJson(const JsonValue &v)
{
    StatDict d;
    for (const auto &kv : v.asObject())
        d.set(kv.first, kv.second.asNumber());
    return d;
}

void
writeJson(std::ostream &os, const JsonValue &v, int indent)
{
    const std::string pad(indent, ' ');
    switch (v.kind()) {
      case JsonValue::Kind::Null:
        os << "null";
        break;
      case JsonValue::Kind::Bool:
        os << (v.asBool() ? "true" : "false");
        break;
      case JsonValue::Kind::Number:
        os << jsonNumber(v.asNumber());
        break;
      case JsonValue::Kind::String:
        os << '"' << jsonEscape(v.asString()) << '"';
        break;
      case JsonValue::Kind::Array: {
        const auto &arr = v.asArray();
        if (arr.empty()) {
            os << "[]";
            break;
        }
        os << "[";
        for (size_t i = 0; i < arr.size(); ++i) {
            os << (i ? "," : "") << '\n' << pad << "  ";
            writeJson(os, arr[i], indent + 2);
        }
        os << '\n' << pad << "]";
        break;
      }
      case JsonValue::Kind::Object: {
        const auto &obj = v.asObject();
        if (obj.empty()) {
            os << "{}";
            break;
        }
        os << "{";
        for (size_t i = 0; i < obj.size(); ++i) {
            os << (i ? "," : "") << '\n' << pad << "  \""
               << jsonEscape(obj[i].first) << "\": ";
            writeJson(os, obj[i].second, indent + 2);
        }
        os << '\n' << pad << "}";
        break;
      }
    }
}

void
TextTable::header(std::vector<std::string> cells)
{
    rows.insert(rows.begin(), std::move(cells));
    hasHeader = true;
}

void
TextTable::row(std::vector<std::string> cells)
{
    rows.push_back(std::move(cells));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<size_t> widths;
    for (const auto &r : rows) {
        if (widths.size() < r.size())
            widths.resize(r.size(), 0);
        for (size_t i = 0; i < r.size(); ++i)
            widths[i] = std::max(widths[i], r[i].size());
    }

    for (size_t ri = 0; ri < rows.size(); ++ri) {
        const auto &r = rows[ri];
        for (size_t i = 0; i < r.size(); ++i) {
            // Left-align the first column, right-align the rest.
            if (i == 0) {
                os << r[i] << std::string(widths[i] - r[i].size(), ' ');
            } else {
                os << "  " << std::string(widths[i] - r[i].size(), ' ')
                   << r[i];
            }
        }
        os << '\n';
        if (ri == 0 && hasHeader) {
            size_t total = 0;
            for (size_t i = 0; i < widths.size(); ++i)
                total += widths[i] + (i ? 2 : 0);
            os << std::string(total, '-') << '\n';
        }
    }
}

std::string
fmtDouble(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

std::string
fmtPct(double frac, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", prec, frac * 100.0);
    return buf;
}

double
harmonicMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double denom = 0.0;
    for (double v : values)
        denom += 1.0 / v;
    return static_cast<double>(values.size()) / denom;
}

} // namespace tproc
