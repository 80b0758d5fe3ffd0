#include "lint/rules.hh"

#include <algorithm>
#include <cstring>

namespace tproc::lint
{

namespace
{

// ------------------------------------------------------------ paths

/** True when `dir` (e.g. "src/core") appears in `path` as a whole
 *  directory-component run. Matching by component keeps the rules
 *  working on absolute paths (tests lint files in temp trees laid
 *  out like the repo). */
bool
underDir(const std::string &path, const char *dir)
{
    const std::string needle = std::string(dir) + "/";
    size_t at = path.find(needle);
    while (at != std::string::npos) {
        if (at == 0 || path[at - 1] == '/')
            return true;
        at = path.find(needle, at + 1);
    }
    return false;
}

std::string
baseName(const std::string &path)
{
    const size_t slash = path.rfind('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

// ----------------------------------------------------------- tokens

/** Code tokens only: comments and preprocessor directives can't call
 *  anything. */
std::vector<const Token *>
codeTokens(const LexedFile &f)
{
    std::vector<const Token *> out;
    out.reserve(f.tokens.size());
    for (const Token &t : f.tokens) {
        if (t.kind != TokKind::Comment && t.kind != TokKind::Preprocessor)
            out.push_back(&t);
    }
    return out;
}

bool
isPunct(const Token *t, char c)
{
    return t && t->kind == TokKind::Punct && t->text.size() == 1 &&
           t->text[0] == c;
}

const Token *
at(const std::vector<const Token *> &ts, size_t i)
{
    return i < ts.size() ? ts[i] : nullptr;
}

/** True when token i is reached through member access (".x" or
 *  "->x"): a method that happens to share a libc name is not the
 *  libc function. */
bool
memberAccess(const std::vector<const Token *> &ts, size_t i)
{
    if (i == 0)
        return false;
    if (isPunct(ts[i - 1], '.'))
        return true;
    return i >= 2 && isPunct(ts[i - 1], '>') && isPunct(ts[i - 2], '-');
}

/** True when token i is "::"-qualified by something other than std
 *  (tproc::time would not be libc time). */
bool
nonStdQualified(const std::vector<const Token *> &ts, size_t i)
{
    if (i < 3 || !isPunct(ts[i - 1], ':') || !isPunct(ts[i - 2], ':'))
        return false;
    const Token *q = ts[i - 3];
    return !(q->kind == TokKind::Identifier && q->text == "std");
}

struct Emitter
{
    const LexedFile &f;
    std::vector<Finding> &out;

    void
    operator()(int line, int col, const char *rule, std::string msg) const
    {
        Finding fnd;
        fnd.file = f.path;
        fnd.line = line;
        fnd.col = col;
        fnd.rule = rule;
        fnd.message = std::move(msg);
        out.push_back(std::move(fnd));
    }
};

// ------------------------------------------------------ style rules

constexpr size_t maxColumns = 79;

void
ruleLineLength(const LexedFile &f, const Emitter &emit)
{
    for (size_t i = 0; i < f.lines.size(); ++i) {
        if (f.lines[i].size() > maxColumns) {
            emit(static_cast<int>(i + 1), static_cast<int>(maxColumns + 1),
                 "line-length",
                 "line is " + std::to_string(f.lines[i].size()) +
                     " columns (limit " + std::to_string(maxColumns) +
                     ")");
        }
    }
}

void
ruleTrailingWhitespace(const LexedFile &f, const Emitter &emit)
{
    for (size_t i = 0; i < f.lines.size(); ++i) {
        const std::string_view line = f.lines[i];
        if (line.empty())
            continue;
        const char last = line.back();
        if (last != ' ' && last != '\t')
            continue;
        // Whitespace at the end of a raw-string line is literal data.
        if (f.inLiteral(f.bytePos(static_cast<int>(i + 1),
                                  line.size() - 1))) {
            continue;
        }
        emit(static_cast<int>(i + 1), static_cast<int>(line.size()),
             "trailing-whitespace", "trailing whitespace");
    }
}

void
ruleNoTab(const LexedFile &f, const Emitter &emit)
{
    for (size_t i = 0; i < f.lines.size(); ++i) {
        const std::string_view line = f.lines[i];
        for (size_t p = 0; p < line.size(); ++p) {
            if (line[p] != '\t')
                continue;
            if (f.inLiteral(f.bytePos(static_cast<int>(i + 1), p)))
                continue;
            emit(static_cast<int>(i + 1), static_cast<int>(p + 1),
                 "no-tab", "tab character (use spaces)");
            break;      // one finding per line is enough
        }
    }
}

void
ruleFinalNewline(const LexedFile &f, const Emitter &emit)
{
    if (f.content.empty() || f.content.back() == '\n')
        return;
    emit(static_cast<int>(f.lines.size()),
         static_cast<int>(f.lines.back().size()), "final-newline",
         "file does not end with a newline");
}

// ---------------------------------------------------- no-raw-parse

bool
rawParseExempt(const std::string &path)
{
    const std::string base = baseName(path);
    // The two sanctioned homes of numeric parsing: the strict parsers
    // themselves and the CLI wrappers around them.
    return (base == "parse.hh" && underDir(path, "src/common")) ||
           (base == "cli.hh" && underDir(path, "tools"));
}

void
ruleNoRawParse(const LexedFile &f,
               const std::vector<const Token *> &ts, const Emitter &emit)
{
    if (rawParseExempt(f.path))
        return;
    static const std::set<std::string> bad = {
        "strtol",  "strtoul", "strtoll", "strtoull", "atoi", "atol",
        "atoll",   "stoi",    "stol",    "stoll",    "stoul", "stoull",
        "strtoimax", "strtoumax",
    };
    for (size_t i = 0; i < ts.size(); ++i) {
        const Token *t = ts[i];
        if (t->kind != TokKind::Identifier ||
            bad.count(std::string(t->text)) == 0) {
            continue;
        }
        if (!isPunct(at(ts, i + 1), '('))
            continue;
        if (memberAccess(ts, i) || nonStdQualified(ts, i))
            continue;
        emit(t->line, t->col, "no-raw-parse",
             "raw numeric parse '" + std::string(t->text) +
                 "' silently truncates or accepts trailing junk; use "
                 "the strict parsers in src/common/parse.hh "
                 "(tproc::parseU64/parseU32)");
    }
}

// -------------------------------------------- no-wall-clock-in-core

bool
wallClockScoped(const std::string &path)
{
    if (!underDir(path, "src"))
        return false;
    // src/common/hires_timer owns the one sanctioned (steady) clock.
    return baseName(path).rfind("hires_timer", 0) != 0;
}

void
ruleNoWallClock(const LexedFile &f,
                const std::vector<const Token *> &ts, const Emitter &emit)
{
    if (!wallClockScoped(f.path))
        return;
    // Flagged on sight: naming these at all in library code is wrong.
    static const std::set<std::string> always = {
        "system_clock", "random_device", "gettimeofday",
    };
    // Flagged as calls: common words, so require "name(".
    static const std::set<std::string> calls = {
        "time", "clock", "rand", "srand",
    };
    for (size_t i = 0; i < ts.size(); ++i) {
        const Token *t = ts[i];
        if (t->kind != TokKind::Identifier)
            continue;
        const std::string name(t->text);
        bool hit = false;
        if (always.count(name)) {
            // Qualification doesn't launder these: std::chrono::
            // system_clock is exactly the thing being flagged.
            hit = !memberAccess(ts, i);
        } else if (calls.count(name)) {
            hit = isPunct(at(ts, i + 1), '(') && !memberAccess(ts, i) &&
                  !nonStdQualified(ts, i);
        }
        if (!hit)
            continue;
        emit(t->line, t->col, "no-wall-clock-in-core",
             "'" + name + "' in library code breaks replay/two-run "
             "bit-identity; use the deterministic seeds (common/"
             "random.hh) or HiresTimer (common/hires_timer.hh) from "
             "harness code");
    }
}

// ------------------------------------------------------ no-bare-panic

bool
barePanicScoped(const std::string &path)
{
    if (!underDir(path, "src"))
        return false;
    const std::string base = baseName(path);
    // logging.{hh,cc} implement panic()/fatal(); lint would be
    // flagging the definitions.
    return base != "logging.hh" && base != "logging.cc";
}

void
ruleNoBarePanic(const LexedFile &f,
                const std::vector<const Token *> &ts, const Emitter &emit)
{
    if (!barePanicScoped(f.path))
        return;
    static const std::set<std::string> bad = {"panic", "fatal", "abort"};
    for (size_t i = 0; i < ts.size(); ++i) {
        const Token *t = ts[i];
        if (t->kind != TokKind::Identifier ||
            bad.count(std::string(t->text)) == 0) {
            continue;
        }
        if (!isPunct(at(ts, i + 1), '('))
            continue;
        if (memberAccess(ts, i) || nonStdQualified(ts, i))
            continue;
        emit(t->line, t->col, "no-bare-panic",
             "bare '" + std::string(t->text) +
                 "()' in library code; throw a structured SimError "
                 "subclass (WatchdogError/ConfigError/TraceError "
                 "pattern) so harnesses can capture and report the "
                 "failure");
    }
}

// --------------------------------------------- no-unordered-iteration

bool
unorderedScoped(const std::string &path)
{
    return underDir(path, "src/core") || underDir(path, "src/harness") ||
           underDir(path, "src/replay");
}

} // namespace

std::set<std::string>
collectUnorderedNames(const LexedFile &f)
{
    std::set<std::string> names;
    const std::vector<const Token *> ts = codeTokens(f);
    for (size_t i = 0; i < ts.size(); ++i) {
        const Token *t = ts[i];
        if (t->kind != TokKind::Identifier ||
            (t->text != "unordered_map" && t->text != "unordered_set")) {
            continue;
        }
        size_t j = i + 1;
        if (!isPunct(at(ts, j), '<'))
            continue;
        // Walk the template argument list. "->" inside arguments
        // would miscount; none of the declarations we care about
        // have one.
        int depth = 0;
        for (; j < ts.size(); ++j) {
            if (isPunct(ts[j], '<'))
                ++depth;
            else if (isPunct(ts[j], '>') && --depth == 0)
                break;
        }
        if (j >= ts.size())
            continue;
        // Skip refs/pointers/cv on the declarator.
        size_t k = j + 1;
        while (isPunct(at(ts, k), '&') || isPunct(at(ts, k), '*') ||
               (at(ts, k) && ts[k]->kind == TokKind::Identifier &&
                ts[k]->text == "const")) {
            ++k;
        }
        const Token *name = at(ts, k);
        if (!name || name->kind != TokKind::Identifier)
            continue;       // e.g. unordered_map<...>::iterator
        if (isPunct(at(ts, k + 1), '('))
            continue;       // function returning a map, not a variable
        names.insert(std::string(name->text));
    }
    return names;
}

namespace
{

void
ruleNoUnorderedIteration(const LexedFile &f,
                         const std::vector<const Token *> &ts,
                         const std::set<std::string> &externNames,
                         const Emitter &emit)
{
    if (!unorderedScoped(f.path))
        return;
    std::set<std::string> names = collectUnorderedNames(f);
    names.insert(externNames.begin(), externNames.end());
    if (names.empty())
        return;

    auto flag = [&](const Token *t, const std::string &name) {
        emit(t->line, t->col, "no-unordered-iteration",
             "iteration over unordered container '" + name +
                 "' is hash-layout-dependent and breaks bit-identity; "
                 "iterate a sorted copy or use an ordered container");
    };

    for (size_t i = 0; i < ts.size(); ++i) {
        const Token *t = ts[i];
        if (t->kind != TokKind::Identifier)
            continue;

        // name.begin() / name->begin() / cbegin.
        if (names.count(std::string(t->text))) {
            size_t j = i + 1;
            if (isPunct(at(ts, j), '.')) {
                ++j;
            } else if (isPunct(at(ts, j), '-') &&
                       isPunct(at(ts, j + 1), '>')) {
                j += 2;
            } else {
                j = 0;
            }
            if (j && at(ts, j) && ts[j]->kind == TokKind::Identifier &&
                (ts[j]->text == "begin" || ts[j]->text == "cbegin") &&
                isPunct(at(ts, j + 1), '(')) {
                flag(t, std::string(t->text));
                continue;
            }
        }

        // Range-for: for ( ... : seq ) where seq's last identifier
        // names an unordered container.
        if (t->text != "for" || !isPunct(at(ts, i + 1), '('))
            continue;
        int depth = 0;
        size_t colon = 0, close = 0;
        for (size_t j = i + 1; j < ts.size(); ++j) {
            if (isPunct(ts[j], '(')) {
                ++depth;
            } else if (isPunct(ts[j], ')')) {
                if (--depth == 0) {
                    close = j;
                    break;
                }
            } else if (isPunct(ts[j], ':') && depth == 1 &&
                       !isPunct(at(ts, j + 1), ':') &&
                       !isPunct(at(ts, j - 1), ':')) {
                colon = j;
            }
        }
        if (!colon || !close)
            continue;
        const Token *lastIdent = nullptr;
        for (size_t j = colon + 1; j < close; ++j) {
            if (ts[j]->kind == TokKind::Identifier)
                lastIdent = ts[j];
        }
        if (lastIdent && names.count(std::string(lastIdent->text)))
            flag(t, std::string(lastIdent->text));
    }
}

} // namespace

// ------------------------------------------------------------ driver

const std::vector<RuleInfo> &
ruleTable()
{
    static const std::vector<RuleInfo> table = {
        {"no-unordered-iteration",
         "no iteration over unordered containers in core/harness/replay"},
        {"no-wall-clock-in-core",
         "no wall clocks or libc randomness in library code"},
        {"no-raw-parse",
         "no strtoul/atoi-family parses outside the strict parsers"},
        {"no-bare-panic", "no bare panic/fatal/abort in library code"},
        {"line-length", "lines are at most 79 columns"},
        {"trailing-whitespace", "no trailing whitespace"},
        {"no-tab", "no tab characters outside literals"},
        {"final-newline", "files end with a newline"},
    };
    return table;
}

void
runRules(const LexedFile &f, const std::set<std::string> &externUnordered,
         std::vector<Finding> &out)
{
    const Emitter emit{f, out};
    const std::vector<const Token *> ts = codeTokens(f);
    ruleNoUnorderedIteration(f, ts, externUnordered, emit);
    ruleNoWallClock(f, ts, emit);
    ruleNoRawParse(f, ts, emit);
    ruleNoBarePanic(f, ts, emit);
    ruleLineLength(f, emit);
    ruleTrailingWhitespace(f, emit);
    ruleNoTab(f, emit);
    ruleFinalNewline(f, emit);
}

} // namespace tproc::lint
