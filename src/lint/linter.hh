/**
 * @file
 * tproc-lint driver: git-tracked file discovery and NOLINT
 * suppressions. docs/lint.md is the reference for the policy;
 * tools/tproc_lint.cc is the CLI around this layer.
 *
 * Suppressions
 *   // NOLINT-tproc(rule-id)            suppresses on the same line
 *   // NOLINT-tproc-next-line(rule-id)  suppresses on the next line
 * A comma-separated list or "*" suppresses several/all rules. Always
 * pair a suppression with a short justification in the same comment;
 * it is the only way to silence a finding.
 */

#ifndef TPROC_LINT_LINTER_HH
#define TPROC_LINT_LINTER_HH

#include <set>
#include <string>
#include <vector>

#include "lint/rules.hh"

namespace tproc::lint
{

struct LintReport
{
    size_t filesScanned = 0;

    /** Findings that fail the lint (not suppressed), sorted by
     *  (file, line, col, rule). */
    std::vector<Finding> findings;

    /** Findings silenced by NOLINT-tproc markers. */
    size_t suppressed = 0;
};

/** Lint one in-memory file (unit tests drive this directly).
 *  `externUnordered` feeds sibling-header container names. */
LintReport lintContent(const std::string &path, std::string content,
                       const std::set<std::string> &externUnordered);

/** Lint every git-tracked *.cc, *.hh and *.cpp file of the checkout
 *  that holds the current directory, from any of its directories.
 *  Findings name paths relative to the checkout's top directory.
 *  Throws std::runtime_error on environment errors (git failure,
 *  unreadable file). */
LintReport lintTree();

/** Human form: "file:line:col: [rule] message". */
std::string findingLine(const Finding &f);

} // namespace tproc::lint

#endif // TPROC_LINT_LINTER_HH
