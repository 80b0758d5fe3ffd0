/**
 * @file
 * Unit tests for tproc-lint (src/lint): tokenizer edge cases, one
 * positive and one negative fixture per rule, NOLINT suppressions,
 * baseline round-trips, and --fix idempotence.
 *
 * Everything drives lintContent()/Baseline::parse() on in-memory
 * fixtures — no filesystem, no git. Fixture paths are laid out like
 * the repo (src/core/..., tools/...) because the path-scoped rules
 * match directory components anywhere in the path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hh"
#include "lint/linter.hh"
#include "lint/rules.hh"

namespace tproc::lint
{
namespace
{

const std::set<std::string> allRules;       // empty = all
const std::set<std::string> noExtern;

/** Lint an in-memory fixture with every rule. */
FileLint
lint(const std::string &path, const std::string &content)
{
    return lintContent(path, content, allRules, noExtern, false);
}

/** Rule ids of the findings, for compact assertions. */
std::vector<std::string>
rulesOf(const FileLint &fl)
{
    std::vector<std::string> ids;
    for (const Finding &f : fl.findings)
        ids.push_back(f.rule);
    return ids;
}

bool
hasRule(const FileLint &fl, const std::string &id)
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
    FileLint fl = lintContent("src/replay/x.cc", src, allRules,
                              {"byPc"}, false);
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
}

TEST(LintRules, TabsOutsideLiteralsOnly)
{
    EXPECT_TRUE(hasRule(lint("a.cc", "\tint x;\n"), "no-tab"));
    EXPECT_FALSE(hasRule(lint("a.cc", "const char *t = \"\ta\";\n"),
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
    FileLint fl = lint("src/core/x.cc",
                       "panic(\"x\");  // NOLINT-tproc(no-bare-panic)\n");
    EXPECT_FALSE(hasRule(fl, "no-bare-panic"));
    EXPECT_EQ(fl.suppressed, 1u);
}

TEST(LintSuppress, NextLineNolint)
{
    FileLint fl = lint(
        "src/core/x.cc",
        "// NOLINT-tproc-next-line(no-bare-panic)\npanic(\"x\");\n");
    EXPECT_FALSE(hasRule(fl, "no-bare-panic"));
    EXPECT_EQ(fl.suppressed, 1u);
}

TEST(LintSuppress, WildcardAndWrongRule)
{
    // "*" silences everything on the line...
    FileLint fl = lint("src/core/x.cc",
                       "int v = atoi(rand_s);  // NOLINT-tproc(*)\n");
    EXPECT_TRUE(fl.findings.empty());
    // ...but naming a different rule suppresses nothing.
    FileLint miss = lint(
        "src/core/x.cc",
        "panic(\"x\");  // NOLINT-tproc(no-raw-parse)\n");
    EXPECT_TRUE(hasRule(miss, "no-bare-panic"));
}

// ----------------------------------------------------- baseline

TEST(LintBaseline, RoundTripMatchesAndTracksStale)
{
    FileLint fl = lint("src/core/x.cc", "panic(\"boom\");\n");
    ASSERT_FALSE(fl.findings.empty());

    Baseline b = Baseline::parse(Baseline::write(fl.findings));
    EXPECT_EQ(b.size(), fl.findings.size());
    for (const Finding &f : fl.findings)
        EXPECT_TRUE(b.match(f));
    EXPECT_TRUE(b.unused().empty());

    // An entry nothing matches is reported stale.
    Baseline stale = Baseline::parse(
        "# gone\n[no-bare-panic] src/core/gone.cc: panic(\"old\");\n");
    EXPECT_EQ(stale.unused().size(), 1u);
}

TEST(LintBaseline, KeySurvivesLineDrift)
{
    FileLint a = lint("src/core/x.cc", "panic(\"boom\");\n");
    FileLint b = lint("src/core/x.cc", "int pad;\n\n\npanic(\"boom\");\n");
    ASSERT_FALSE(a.findings.empty());
    ASSERT_FALSE(b.findings.empty());
    EXPECT_NE(a.findings[0].line, b.findings[0].line);
    EXPECT_EQ(Baseline::key(a.findings[0]), Baseline::key(b.findings[0]));
}

TEST(LintBaseline, MalformedEntryThrows)
{
    EXPECT_THROW(Baseline::parse("not a baseline line\n"),
                 std::runtime_error);
    EXPECT_THROW(Baseline::parse("[nonesuch-rule] a.cc: x\n"),
                 std::runtime_error);
}

// ---------------------------------------------------------- fix

TEST(LintFix, RepairsAndIsIdempotent)
{
    const std::string dirty = "\tint x;   \nint y;";
    FileLint first = lintContent("a.cc", dirty, allRules, noExtern,
                                 true);
    ASSERT_TRUE(first.fixed);
    EXPECT_EQ(first.fixedContent, "    int x;\nint y;\n");

    // Re-fixing the fixed content is a no-op with no style findings.
    FileLint second = lintContent("a.cc", first.fixedContent, allRules,
                                  noExtern, true);
    EXPECT_FALSE(second.fixed);
    EXPECT_FALSE(hasRule(second, "no-tab"));
    EXPECT_FALSE(hasRule(second, "trailing-whitespace"));
    EXPECT_FALSE(hasRule(second, "final-newline"));
}

TEST(LintFix, NeverTouchesLiterals)
{
    const std::string src = "auto s = R\"(keep\tthis   \n)\";\n";
    FileLint fl = lintContent("a.cc", src, allRules, noExtern, true);
    EXPECT_FALSE(fl.fixed);
}

// ------------------------------------------------------- report

TEST(LintReportTest, JsonCarriesSchemaAndCounts)
{
    LintReport r;
    r.filesScanned = 2;
    Finding f;
    f.file = "src/core/x.cc";
    f.line = 3;
    f.col = 1;
    f.rule = "no-bare-panic";
    f.message = "m";
    f.context = "panic(\"x\");";
    r.fresh.push_back(f);
    const std::string json = reportToJson(r);
    EXPECT_NE(json.find("tproc-lint-v1"), std::string::npos);
    EXPECT_NE(json.find("no-bare-panic"), std::string::npos);
}

} // anonymous namespace
} // namespace tproc::lint
