/**
 * @file
 * Tiny argument helpers shared by the tproc CLIs (tproc-sweep,
 * tproc-trace, tproc-explore, bench_paper).
 *
 * The numeric parsers are strict by design: "--insts=abc" or
 * "--seed=1x" must be a usage error, never a silent zero (the strtoull
 * default) or an uncaught std::invalid_argument (the std::stoull
 * default). The parsers themselves live in src/common/parse.hh so
 * library code shares them; this header re-exports them under
 * tproc::cli. docs/cli.md documents the conventions.
 */

#ifndef TPROC_TOOLS_CLI_HH
#define TPROC_TOOLS_CLI_HH

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/parse.hh"

namespace tproc::cli
{

using tproc::parseU64;
using tproc::parseU32;

/** Match "--key=value"; on success value receives everything after
 *  the '='. */
inline bool
parseArg(const char *arg, const char *key, std::string &value)
{
    size_t len = std::strlen(key);
    if (std::strncmp(arg, key, len) != 0 || arg[len] != '=')
        return false;
    value = arg + len + 1;
    return true;
}

/**
 * Split a comma-separated list, dropping empty fields. Only commas
 * outside parentheses split, so a model name such as "base(fg,ntb)"
 * stays one field.
 */
inline std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::string field;
    int depth = 0;
    for (char c : s) {
        if (c == ',' && depth == 0) {
            if (!field.empty())
                out.push_back(field);
            field.clear();
            continue;
        }
        if (c == '(')
            ++depth;
        else if (c == ')' && depth > 0)
            --depth;
        field += c;
    }
    if (!field.empty())
        out.push_back(field);
    return out;
}

/**
 * Bound for count-valued flags that allocate proportionally
 * (--generate, --shapes): large enough for any real campaign, small
 * enough that a typo'd count is a usage error instead of an
 * out-of-memory kill while building the point grid.
 */
constexpr uint64_t maxCountFlag = 1000000;

/**
 * Probe that `path` can be created/written, without truncating an
 * existing file. Output-file flags (e.g. --metrics-json) call this at
 * argument-parse time so an unwritable destination is a usage error up
 * front, not a lost-results error after minutes of simulation.
 */
inline bool
checkWritable(const std::string &path)
{
    if (path.empty())
        return false;
    std::error_code ec;
    const bool existed = std::filesystem::exists(path, ec);
    {
        std::ofstream probe(path, std::ios::app);
        if (!probe)
            return false;
    }
    if (!existed)
        std::filesystem::remove(path, ec);
    return true;
}

} // namespace tproc::cli

#endif // TPROC_TOOLS_CLI_HH
