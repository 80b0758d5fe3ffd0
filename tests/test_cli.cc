/**
 * @file
 * CLI helper tests (tools/cli.hh): the strict numeric parsers
 * (including the 2^32-overflow corner of 32-bit flags), the
 * parenthesis-aware list splitter, and the count-flag grid bound.
 * Process-level usage-error behavior (exit 2 / exit 126 paths) is
 * exercised by the CI smoke steps; these tests pin the parsing layer
 * itself.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "tools/cli.hh"

namespace tproc
{

TEST(Cli, ParseU64IsStrict)
{
    uint64_t v = 99;
    EXPECT_TRUE(cli::parseU64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(cli::parseU64("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);

    // Rejections leave the output untouched.
    v = 99;
    EXPECT_FALSE(cli::parseU64("", v));
    EXPECT_FALSE(cli::parseU64("12x", v));
    EXPECT_FALSE(cli::parseU64("-1", v));
    EXPECT_FALSE(cli::parseU64(" 1", v));
    EXPECT_FALSE(cli::parseU64("18446744073709551616", v)); // 2^64
    EXPECT_EQ(v, 99u);
}

TEST(Cli, ParseU32RejectsAbove32Bits)
{
    unsigned v = 7;
    EXPECT_TRUE(cli::parseU32("4294967295", v));
    EXPECT_EQ(v, 0xffffffffu);
    v = 7;
    EXPECT_FALSE(cli::parseU32("4294967296", v));
    EXPECT_EQ(v, 7u);
}

TEST(Cli, SplitListKeepsParenthesizedCommas)
{
    using List = std::vector<std::string>;
    EXPECT_EQ(cli::splitList("base,base(fg,ntb),FG+MLB-RET"),
              (List{"base", "base(fg,ntb)", "FG+MLB-RET"}));
    EXPECT_EQ(cli::splitList("base(fg,ntb)"), (List{"base(fg,ntb)"}));
    EXPECT_EQ(cli::splitList(",compress,,li,"), (List{"compress", "li"}));
    EXPECT_EQ(cli::splitList(""), List{});
    // An unbalanced parenthesis keeps the rest of the list in one
    // field, which then fails name validation as a whole.
    EXPECT_EQ(cli::splitList("base(fg,ntb,FG"), (List{"base(fg,ntb,FG"}));
}

TEST(Cli, CountFlagBoundIsSane)
{
    // --generate/--shapes allocate proportionally to their value; the
    // shared bound must stay large enough for real campaigns and small
    // enough that a typo is a usage error, not an OOM kill.
    EXPECT_GE(cli::maxCountFlag, 100000u);
    EXPECT_LE(cli::maxCountFlag, 100000000u);
}

} // namespace tproc
