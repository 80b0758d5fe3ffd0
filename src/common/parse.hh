/**
 * @file
 * Strict numeric parsing, shared by library and CLI code.
 *
 * Every raw strtoul/atoi-family parse this repo ever shipped turned
 * into a bug eventually: --shard=I/N silently truncated 2^32-
 * overflowing components (PR 9), --insts=abc was a silent zero
 * (PR 7). These parsers are total: every character must be a decimal
 * digit, the value must fit the target type, and on failure the
 * output is untouched. tproc-lint's no-raw-parse rule points here;
 * tools/cli.hh re-exports these under tproc::cli for the CLIs.
 */

#ifndef TPROC_COMMON_PARSE_HH
#define TPROC_COMMON_PARSE_HH

#include <cstdint>
#include <string>

namespace tproc
{

/** Strict decimal uint64 parse: every character a digit, no overflow.
 *  On failure `out` is untouched. */
inline bool
parseU64(const std::string &v, uint64_t &out)
{
    if (v.empty())
        return false;
    uint64_t x = 0;
    for (char c : v) {
        if (c < '0' || c > '9')
            return false;
        const uint64_t digit = static_cast<uint64_t>(c - '0');
        if (x > (UINT64_MAX - digit) / 10)
            return false;       // would overflow
        x = x * 10 + digit;
    }
    out = x;
    return true;
}

/** Strict decimal parse into unsigned (32-bit range checked). */
inline bool
parseU32(const std::string &v, unsigned &out)
{
    uint64_t x;
    if (!parseU64(v, x) || x > 0xffffffffULL)
        return false;
    out = static_cast<unsigned>(x);
    return true;
}

/**
 * Environment-variable override: leaves `out` untouched when `name`
 * is unset, parses strictly when set. @return false only when the
 * variable is set but malformed (callers warn or fall back; a typo'd
 * knob must never be a silent zero).
 */
bool parseEnvU64(const char *name, uint64_t &out);

} // namespace tproc

#endif // TPROC_COMMON_PARSE_HH
