#include "lint/linter.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>

namespace tproc::lint
{

namespace
{

// ------------------------------------------------------ suppressions

std::vector<std::string>
splitRuleList(const std::string &list)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        std::string id = list.substr(pos, comma - pos);
        const size_t b = id.find_first_not_of(" \t");
        const size_t e = id.find_last_not_of(" \t");
        if (b != std::string::npos)
            out.push_back(id.substr(b, e - b + 1));
        pos = comma + 1;
    }
    return out;
}

void
addMarker(std::map<int, std::set<std::string>> &map, int line,
          const std::string &comment, const std::string &marker)
{
    size_t at = comment.find(marker);
    while (at != std::string::npos) {
        const size_t open = at + marker.size();
        const size_t close = comment.find(')', open);
        if (close == std::string::npos)
            return;
        for (const std::string &id :
             splitRuleList(comment.substr(open, close - open))) {
            map[line].insert(id);
        }
        at = comment.find(marker, close);
    }
}

/** line -> rule ids (or "*") suppressed on that line. */
std::map<int, std::set<std::string>>
suppressionMap(const LexedFile &f)
{
    std::map<int, std::set<std::string>> map;
    for (const Token &t : f.tokens) {
        if (t.kind != TokKind::Comment)
            continue;
        const std::string text(t.text);
        if (text.find("NOLINT-tproc") == std::string::npos)
            continue;
        // The same-line form covers every line the comment spans; the
        // next-line form targets the line after the comment ends.
        addMarker(map, t.endLine + 1, text, "NOLINT-tproc-next-line(");
        for (int line = t.line; line <= t.endLine; ++line)
            addMarker(map, line, text, "NOLINT-tproc(");
    }
    return map;
}

bool
isSuppressed(const std::map<int, std::set<std::string>> &map,
             const Finding &fnd)
{
    auto it = map.find(fnd.line);
    if (it == map.end())
        return false;
    return it->second.count("*") != 0 || it->second.count(fnd.rule) != 0;
}

// ---------------------------------------------------------- file IO

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("lint: cannot read '" + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The stdout of cmd; throws naming what when it cannot run or exits
 *  nonzero. */
std::string
runGit(const std::string &cmd, const char *what)
{
    FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        throw std::runtime_error(std::string("lint: cannot run ") + what);
    std::string buf;
    char chunk[4096];
    size_t n;
    while ((n = fread(chunk, 1, sizeof(chunk), p)) > 0)
        buf.append(chunk, n);
    if (pclose(p) != 0) {
        throw std::runtime_error(std::string("lint: ") + what +
                                 " failed (run tproc-lint from a git "
                                 "checkout)");
    }
    return buf;
}

/** s as one single-quoted shell word. */
std::string
shellQuote(const std::string &s)
{
    std::string q = "'";
    for (char c : s)
        q += c == '\'' ? std::string("'\\''") : std::string(1, c);
    return q + "'";
}

/** The top directory of the checkout holding the current directory. */
std::string
gitRoot()
{
    std::string root =
        runGit("git rev-parse --show-toplevel", "git rev-parse");
    while (!root.empty() && (root.back() == '\n' || root.back() == '\r'))
        root.pop_back();
    return root;
}

/** Every tracked C++ source of the checkout at root, as a path
 *  relative to root, sorted. */
std::vector<std::string>
gitTrackedSources(const std::string &root)
{
    const std::string buf =
        runGit("git -C " + shellQuote(root) +
                   " ls-files -z -- '*.cc' '*.hh' '*.cpp'",
               "git ls-files");
    std::vector<std::string> files;
    size_t start = 0;
    while (start < buf.size()) {
        const size_t nul = buf.find('\0', start);
        const size_t end = nul == std::string::npos ? buf.size() : nul;
        if (end > start)
            files.emplace_back(buf.substr(start, end - start));
        start = end + 1;
    }
    std::sort(files.begin(), files.end());
    return files;
}

/** Container names declared in the sibling .hh of a .cc, so members
 *  declared in the header and iterated in the implementation are
 *  caught (the rules are otherwise per-file). path is relative to
 *  root. */
std::set<std::string>
siblingUnorderedNames(const std::string &root, const std::string &path)
{
    if (path.size() < 3 || path.compare(path.size() - 3, 3, ".cc") != 0)
        return {};
    const std::string sibling = path.substr(0, path.size() - 3) + ".hh";
    std::ifstream in(root + "/" + sibling, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return collectUnorderedNames(lexFile(sibling, ss.str()));
}

bool
findingLess(const Finding &a, const Finding &b)
{
    if (a.file != b.file)
        return a.file < b.file;
    if (a.line != b.line)
        return a.line < b.line;
    if (a.col != b.col)
        return a.col < b.col;
    return a.rule < b.rule;
}

} // namespace

// ---------------------------------------------------------- lint core

LintReport
lintContent(const std::string &path, std::string content,
            const std::set<std::string> &externUnordered)
{
    const LexedFile f = lexFile(path, std::move(content));
    std::vector<Finding> raw;
    runRules(f, externUnordered, raw);

    LintReport r;
    r.filesScanned = 1;
    const auto supp = suppressionMap(f);
    for (Finding &fnd : raw) {
        if (isSuppressed(supp, fnd))
            ++r.suppressed;
        else
            r.findings.push_back(std::move(fnd));
    }
    return r;
}

LintReport
lintTree()
{
    const std::string root = gitRoot();
    LintReport report;
    for (const std::string &file : gitTrackedSources(root)) {
        LintReport one = lintContent(file, readFile(root + "/" + file),
                                     siblingUnorderedNames(root, file));
        report.filesScanned += one.filesScanned;
        report.suppressed += one.suppressed;
        std::move(one.findings.begin(), one.findings.end(),
                  std::back_inserter(report.findings));
    }
    std::sort(report.findings.begin(), report.findings.end(),
              findingLess);
    return report;
}

// ------------------------------------------------------------ output

std::string
findingLine(const Finding &f)
{
    return f.file + ":" + std::to_string(f.line) + ":" +
           std::to_string(f.col) + ": [" + f.rule + "] " + f.message;
}

} // namespace tproc::lint
