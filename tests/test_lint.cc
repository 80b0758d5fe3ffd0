/**
 * @file
 * Unit tests for tproc-lint (src/lint): tokenizer edge cases, one
 * positive and one negative fixture per rule, and NOLINT
 * suppressions.
 *
 * The rule tests drive lintContent() on in-memory fixtures; ctest's
 * `tproc-lint` entry lints the tree itself. Fixture paths are laid out
 * like the repo (src/core/..., tools/...) because the path-scoped
 * rules match directory components anywhere in the path. One test
 * runs lintTree() over a scratch git checkout.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint/lexer.hh"
#include "lint/linter.hh"
#include "lint/rules.hh"

namespace tproc::lint
{
namespace
{

/** Lint an in-memory fixture with no sibling header. */
LintReport
lint(const std::string &path, const std::string &content)
{
    return lintContent(path, content, {});
}

/** Rule ids of the findings, for compact assertions. */
std::vector<std::string>
rulesOf(const LintReport &fl)
{
    std::vector<std::string> ids;
    for (const Finding &f : fl.findings)
        ids.push_back(f.rule);
    return ids;
}

bool
hasRule(const LintReport &fl, const std::string &id)
{
    const std::vector<std::string> ids = rulesOf(fl);
    return std::find(ids.begin(), ids.end(), id) != ids.end();
}

// ------------------------------------------------------------- lexer

TEST(LintLexer, StringContentsAreNotIdentifiers)
{
    LexedFile f = lexFile("x.cc",
                          "const char *s = \"panic(replay)\";\n");
    for (const Token &t : f.tokens) {
        if (t.kind == TokKind::Identifier) {
            EXPECT_NE(t.text, "panic");
        }
    }
}

TEST(LintLexer, RawStringWithDelimiter)
{
    // The ) inside the raw string must not end it; only )X" does.
    LexedFile f =
        lexFile("x.cc", "auto s = R\"X(a \" ) )Y\" b)X\";\nint z;\n");
    bool sawRaw = false;
    for (const Token &t : f.tokens) {
        if (t.kind == TokKind::RawString) {
            sawRaw = true;
            EXPECT_NE(t.text.find("b)X\""), std::string_view::npos);
        }
        if (t.kind == TokKind::Identifier) {
            EXPECT_NE(t.text, "b");
        }
    }
    EXPECT_TRUE(sawRaw);
}

TEST(LintLexer, DigitSeparatorsStayOneNumber)
{
    LexedFile f = lexFile("x.cc", "uint64_t n = 1'000'000;\n");
    size_t numbers = 0;
    for (const Token &t : f.tokens) {
        if (t.kind == TokKind::Number) {
            ++numbers;
            EXPECT_EQ(t.text, "1'000'000");
        }
        EXPECT_NE(t.kind, TokKind::CharLit);
    }
    EXPECT_EQ(numbers, 1u);
}

TEST(LintLexer, PreprocessorContinuationIsOneToken)
{
    LexedFile f = lexFile("x.cc",
                          "#define M(a) \\\n    panic(a)\nint x;\n");
    ASSERT_FALSE(f.tokens.empty());
    EXPECT_EQ(f.tokens[0].kind, TokKind::Preprocessor);
    EXPECT_EQ(f.tokens[0].endLine, 2);
    // panic lives inside the directive, not as a bare identifier.
    for (const Token &t : f.tokens) {
        if (t.kind == TokKind::Identifier) {
            EXPECT_NE(t.text, "panic");
        }
    }
}

TEST(LintLexer, InLiteralCoversStringsOnly)
{
    const std::string src = "int a; const char *s = \"tab\\there\";\n";
    LexedFile f = lexFile("x.cc", src);
    EXPECT_FALSE(f.inLiteral(0));                       // 'i' of int
    EXPECT_TRUE(f.inLiteral(src.find("tab")));
}

// ------------------------------------------- determinism rules

TEST(LintRules, UnorderedIterationFlagged)
{
    const std::string src =
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> m;\n"
        "void f() { for (auto &kv : m) (void)kv; }\n";
    EXPECT_TRUE(hasRule(lint("src/core/x.cc", src),
                        "no-unordered-iteration"));
    // Same code outside the deterministic dirs is fine.
    EXPECT_FALSE(hasRule(lint("tools/x.cc", src),
                         "no-unordered-iteration"));
}

TEST(LintRules, UnorderedBeginFlaggedFindIsNot)
{
    const std::string begin =
        "std::unordered_set<int> s;\n"
        "auto i = s.begin();\n";
    EXPECT_TRUE(hasRule(lint("src/harness/x.cc", begin),
                        "no-unordered-iteration"));
    const std::string find =
        "std::unordered_set<int> s;\n"
        "bool b = s.find(3) != s.end();\n";
    EXPECT_FALSE(hasRule(lint("src/harness/x.cc", find),
                         "no-unordered-iteration"));
}

TEST(LintRules, OrderedIterationIsFine)
{
    const std::string src = "std::map<int, int> m;\n"
                            "void f() { for (auto &kv : m) (void)kv; }\n";
    EXPECT_FALSE(hasRule(lint("src/core/x.cc", src),
                         "no-unordered-iteration"));
}

TEST(LintRules, SiblingHeaderNamesFeedIteration)
{
    // Container declared in the .hh (externUnordered), iterated in
    // the .cc — the driver merges the names in.
    const std::string src = "void f() { for (auto &kv : byPc)\n"
                            "    (void)kv; }\n";
    LintReport fl = lintContent("src/replay/x.cc", src, {"byPc"});
    EXPECT_TRUE(hasRule(fl, "no-unordered-iteration"));
}

TEST(LintRules, WallClockFlaggedInCoreNotInTools)
{
    const std::string src =
        "auto t = std::chrono::system_clock::now();\n";
    EXPECT_TRUE(hasRule(lint("src/core/x.cc", src),
                        "no-wall-clock-in-core"));
    EXPECT_FALSE(hasRule(lint("tools/x.cc", src),
                         "no-wall-clock-in-core"));
    // The one sanctioned wall-clock home.
    EXPECT_FALSE(hasRule(lint("src/common/hires_timer.cc", src),
                         "no-wall-clock-in-core"));
}

TEST(LintRules, RandCallFlaggedMemberIsNot)
{
    EXPECT_TRUE(hasRule(lint("src/core/x.cc", "int r = rand();\n"),
                        "no-wall-clock-in-core"));
    // A member named rand/time belongs to its class, not libc.
    EXPECT_FALSE(hasRule(lint("src/core/x.cc",
                              "int r = rng.rand();\n"),
                         "no-wall-clock-in-core"));
}

TEST(LintRules, RawParseFlaggedOutsideParsers)
{
    const std::string src = "int v = atoi(s);\n";
    EXPECT_TRUE(hasRule(lint("src/core/x.cc", src), "no-raw-parse"));
    EXPECT_TRUE(hasRule(lint("bench/x.cc", src), "no-raw-parse"));
    // The strict parsers themselves are exempt.
    EXPECT_FALSE(hasRule(lint("tools/cli.hh", src), "no-raw-parse"));
    EXPECT_FALSE(hasRule(lint("src/common/parse.hh", src),
                         "no-raw-parse"));
}

TEST(LintRules, BarePanicFlaggedPanicIfIsNot)
{
    EXPECT_TRUE(hasRule(lint("src/core/x.cc", "panic(\"boom\");\n"),
                        "no-bare-panic"));
    EXPECT_FALSE(hasRule(lint("src/core/x.cc",
                              "panic_if(bad, \"boom\");\n"),
                         "no-bare-panic"));
    // Library scope only; a CLI may abort.
    EXPECT_FALSE(hasRule(lint("tools/x.cc", "panic(\"boom\");\n"),
                         "no-bare-panic"));
    // A literal mentioning panic( is data.
    EXPECT_FALSE(hasRule(lint("src/core/x.cc",
                              "const char *s = \"panic(x)\";\n"),
                         "no-bare-panic"));
}

// -------------------------------------------------- style rules

TEST(LintRules, LineLength)
{
    const std::string longLine(85, 'x');
    EXPECT_TRUE(hasRule(lint("src/core/x.cc",
                             "// " + longLine + "\n"),
                        "line-length"));
    const std::string okLine(70, 'x');
    EXPECT_FALSE(hasRule(lint("src/core/x.cc",
                              "// " + okLine + "\n"),
                         "line-length"));
}

TEST(LintRules, TrailingWhitespace)
{
    EXPECT_TRUE(hasRule(lint("a.cc", "int x;  \n"),
                        "trailing-whitespace"));
    EXPECT_FALSE(hasRule(lint("a.cc", "int x;\n"),
                         "trailing-whitespace"));
    // Trailing spaces inside a raw string are literal content.
    EXPECT_FALSE(hasRule(lint("a.cc",
                              "auto s = R\"(line  \nmore)\";\n"),
                         "trailing-whitespace"));
    EXPECT_FALSE(hasRule(lint("a.cc",
                              "auto s = R\"(keep\tthis   \n)\";\n"),
                         "trailing-whitespace"));
}

TEST(LintRules, TabsOutsideLiteralsOnly)
{
    EXPECT_TRUE(hasRule(lint("a.cc", "\tint x;\n"), "no-tab"));
    EXPECT_FALSE(hasRule(lint("a.cc", "const char *t = \"\ta\";\n"),
                         "no-tab"));
    EXPECT_FALSE(hasRule(lint("a.cc",
                              "auto s = R\"(keep\tthis   \n)\";\n"),
                         "no-tab"));
}

TEST(LintRules, FinalNewline)
{
    EXPECT_TRUE(hasRule(lint("a.cc", "int x;"), "final-newline"));
    EXPECT_FALSE(hasRule(lint("a.cc", "int x;\n"), "final-newline"));
}

// ------------------------------------------------- suppressions

TEST(LintSuppress, SameLineNolint)
{
    LintReport fl = lint(
        "src/core/x.cc", "panic(\"x\");  // NOLINT-tproc(no-bare-panic)\n");
    EXPECT_FALSE(hasRule(fl, "no-bare-panic"));
    EXPECT_EQ(fl.suppressed, 1u);
}

TEST(LintSuppress, NextLineNolint)
{
    LintReport fl = lint(
        "src/core/x.cc",
        "// NOLINT-tproc-next-line(no-bare-panic)\npanic(\"x\");\n");
    EXPECT_FALSE(hasRule(fl, "no-bare-panic"));
    EXPECT_EQ(fl.suppressed, 1u);
}

TEST(LintSuppress, WildcardAndWrongRule)
{
    // "*" silences everything on the line...
    LintReport fl = lint("src/core/x.cc",
                         "int v = atoi(rand_s);  // NOLINT-tproc(*)\n");
    EXPECT_TRUE(fl.findings.empty());
    // ...as does a list naming each rule that fires...
    LintReport list = lint(
        "src/core/x.cc",
        "panic(atoi(s));  // NOLINT-tproc(no-raw-parse, no-bare-panic)\n");
    EXPECT_TRUE(list.findings.empty());
    EXPECT_EQ(list.suppressed, 2u);
    // ...but naming a different rule suppresses nothing.
    LintReport miss = lint(
        "src/core/x.cc",
        "panic(\"x\");  // NOLINT-tproc(no-raw-parse)\n");
    EXPECT_TRUE(hasRule(miss, "no-bare-panic"));
}

// -------------------------------------------------------------- tree

TEST(LintTree, SubdirectoryRunLintsTheWholeCheckout)
{
    // A scratch checkout tracking one src/core/x.cc with a bare panic,
    // a rule scoped to src/. Linted from its src/ directory, the file
    // keeps its path from the top directory, so the rule still fires.
    namespace fs = std::filesystem;
    const fs::path root = fs::path(testing::TempDir()) /
        ("lint_tree." + std::to_string(::getpid()));
    fs::remove_all(root);
    fs::create_directories(root / "src" / "core");
    std::ofstream(root / "src" / "core" / "x.cc")
        << "void f() { panic(\"x\"); }\n";
    const std::string git = "git -C '" + root.string() + "' ";
    ASSERT_EQ(std::system((git + "init -q").c_str()), 0);
    ASSERT_EQ(std::system((git + "add src/core/x.cc").c_str()), 0);

    const fs::path cwd = fs::current_path();
    fs::current_path(root / "src");
    LintReport report;
    std::string error;
    try {
        report = lintTree();
    } catch (const std::exception &e) {
        error = e.what();
    }
    fs::current_path(cwd);
    fs::remove_all(root);

    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(report.filesScanned, 1u);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].file, "src/core/x.cc");
    EXPECT_EQ(report.findings[0].rule, "no-bare-panic");
}

} // anonymous namespace
} // namespace tproc::lint
