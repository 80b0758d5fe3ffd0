/**
 * @file
 * tproc-lint rule set: each rule encodes an invariant this codebase
 * has already paid for in review cycles or debugging time.
 * docs/lint.md carries the motivating bug for every rule.
 *
 * Determinism rules
 *  - no-unordered-iteration: iterating an unordered container on a
 *    stats/commit path makes the result depend on hash-table layout.
 *  - no-wall-clock-in-core:  wall clocks and libc randomness in
 *    library code break replay and two-run bit-identity.
 *  - no-raw-parse:           strtoul/atoi-family parses truncate or
 *    accept junk silently (the PR-9 --shard bug class).
 *  - no-bare-panic:          harness code needs structured SimError
 *    subclasses, not anonymous aborts (the PR-8 WatchdogError
 *    lesson).
 *
 * Style rules (the in-repo replacement for the never-present
 * clang-format binary)
 *  - line-length, trailing-whitespace, no-tab, final-newline.
 */

#ifndef TPROC_LINT_RULES_HH
#define TPROC_LINT_RULES_HH

#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hh"

namespace tproc::lint
{

struct Finding
{
    std::string file;       //!< path as given to the linter
    int line = 0;           //!< 1-based
    int col = 0;            //!< 1-based
    std::string rule;       //!< rule id, e.g. "no-raw-parse"
    std::string message;
};

struct RuleInfo
{
    const char *id;
    const char *summary;
};

/** All rules, in reporting order. */
const std::vector<RuleInfo> &ruleTable();

/**
 * Identifiers declared in `f` with an unordered_map/unordered_set
 * type. The no-unordered-iteration rule checks range-for loops and
 * .begin() calls against this set; the driver merges in the names
 * from a .cc file's sibling header so members declared in the header
 * and iterated in the implementation are still caught.
 */
std::set<std::string> collectUnorderedNames(const LexedFile &f);

/**
 * Run every rule over `f`, appending findings. `externUnordered`
 * holds container names collected from a sibling header, if any.
 * Findings are emitted in line order per rule; the driver sorts the
 * merged list.
 */
void runRules(const LexedFile &f,
              const std::set<std::string> &externUnordered,
              std::vector<Finding> &out);

} // namespace tproc::lint

#endif // TPROC_LINT_RULES_HH
