/**
 * @file
 * tproc-lint: the in-repo determinism + style checker.
 *
 *   tproc-lint [--list-rules] [--help]
 *
 * Lints every git-tracked *.cc, *.hh, and *.cpp file of the checkout
 * that holds the current directory, from any of its directories, and
 * prints one "file:line:col: [rule] message" line per finding, the
 * path taken from the checkout's top directory. A finding is silenced
 * only by an in-line NOLINT-tproc marker that carries its
 * justification; docs/lint.md is the rule + policy reference.
 *
 * Exit codes (docs/cli.md): 0 = clean, 1 = findings, 2 = usage
 * error, 126 = runtime error (git failure, unreadable file).
 */

#include <cstring>
#include <iostream>

#include "lint/linter.hh"

using namespace tproc::lint;

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: tproc-lint [--list-rules] [--help]\n"
          "\n"
          "Lints git-tracked *.cc/*.hh/*.cpp of the current checkout\n"
          "against the tproc determinism + style rules; see\n"
          "docs/lint.md. Exit 0 = clean, 1 = findings, 2 = usage,\n"
          "126 = runtime error.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--list-rules") == 0) {
            for (const RuleInfo &r : ruleTable())
                std::cout << r.id << "\n    " << r.summary << "\n";
            return 0;
        }
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            usage(std::cout);
            return 0;
        }
        std::cerr << "tproc-lint: unknown argument '" << argv[i] << "'\n";
        usage(std::cerr);
        return 2;
    }

    try {
        const LintReport report = lintTree();
        for (const Finding &f : report.findings)
            std::cout << findingLine(f) << "\n";
        std::cerr << "tproc-lint: " << report.filesScanned << " files, "
                  << report.findings.size() << " findings ("
                  << report.suppressed << " suppressed)\n";
        return report.findings.empty() ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "tproc-lint: " << e.what() << "\n";
        return 126;
    }
}
