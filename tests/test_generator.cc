/**
 * @file
 * Synthetic-workload generator tests: name grammar and error
 * reporting, byte-identical program determinism (including across
 * processes), and the standing live == replay oracle on generated
 * programs. The capture-on-failure contract is tested with the
 * explorer (test_explorer).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "harness/sweep.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace tproc
{

namespace
{

namespace fs = std::filesystem;

/** Unique scratch directory, removed (recursively) on destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string &stem)
        : p(testing::TempDir() + stem + "." +
            std::to_string(::getpid()) + "." +
            std::to_string(reinterpret_cast<uintptr_t>(this)))
    {
        fs::remove_all(p);
        fs::create_directories(p);
    }

    ~TempDir() { fs::remove_all(p); }

    const std::string &path() const { return p; }

  private:
    std::string p;
};

/** Order-independent digest of a Program: every Instruction field,
 *  the sorted data image, and the entry point (field-wise, never raw
 *  struct bytes — padding is indeterminate). Equal digests across
 *  processes prove the generator depends on nothing but its
 *  (name, seed, scale) inputs. */
uint64_t
programDigest(const Program &prog)
{
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](const void *data, size_t n) {
        const auto *b = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    for (const Instruction &in : prog.code) {
        mix(&in.op, sizeof(in.op));
        mix(&in.rd, sizeof(in.rd));
        mix(&in.rs1, sizeof(in.rs1));
        mix(&in.rs2, sizeof(in.rs2));
        mix(&in.imm, sizeof(in.imm));
    }
    for (const auto &[addr, value] : prog.dataInit) {
        mix(&addr, sizeof(addr));
        mix(&value, sizeof(value));
    }
    mix(&prog.entry, sizeof(prog.entry));
    return h;
}

} // anonymous namespace

TEST(Generator, NameGrammarRoundTrip)
{
    EXPECT_EQ(generatedName("all", 7), "gen:all:7");
    EXPECT_EQ(generatedName("fgci*3+loops", 0), "gen:fgci*3+loops:0");
    EXPECT_TRUE(isGeneratedName("gen:all:0"));
    EXPECT_FALSE(isGeneratedName("compress"));
    EXPECT_FALSE(isGeneratedName("genx:all:0"));

    EXPECT_NO_THROW(validateGeneratedName("gen:all:12"));
    EXPECT_NO_THROW(validateGeneratedName("gen:memory*2+steady:3"));
    EXPECT_THROW(validateGeneratedName("gen:all"),
                 UnknownWorkloadError);
    EXPECT_THROW(validateGeneratedName("gen:all:x"),
                 UnknownWorkloadError);
    EXPECT_THROW(validateGeneratedName("gen:nope:0"),
                 UnknownWorkloadError);
}

TEST(Generator, MixParserAcceptsWeightsRejectsTypos)
{
    const auto all = parsePatternMix("all");
    EXPECT_EQ(all.size(), builtinPatterns().size());

    const auto mix = parsePatternMix("fgci*3+loops");
    ASSERT_EQ(mix.size(), 2u);
    EXPECT_EQ(mix[0].pattern->name, "fgci");
    EXPECT_EQ(mix[0].weight, 3u);
    EXPECT_EQ(mix[1].pattern->name, "loops");
    EXPECT_EQ(mix[1].weight, 1u);

    EXPECT_THROW(parsePatternMix(""), UnknownWorkloadError);
    EXPECT_THROW(parsePatternMix("nope"), UnknownWorkloadError);
    EXPECT_THROW(parsePatternMix("fgci*0"), UnknownWorkloadError);
    EXPECT_THROW(parsePatternMix("fgci*"), UnknownWorkloadError);
    EXPECT_THROW(parsePatternMix("fgci*two"), UnknownWorkloadError);
    EXPECT_THROW(parsePatternMix("fgci+"), UnknownWorkloadError);
}

TEST(Generator, OverflowingWeightAndIndexAreRejected)
{
    // Regression: all-digits inputs used to pre-pass the digit check
    // and then silently saturate through strtoull (weight ->
    // ULLONG_MAX corrupts the weighted draw; index -> wrong program).
    // The strict parsers reject the overflow outright.
    const std::string big = "99999999999999999999";     // > 2^64
    EXPECT_THROW(parsePatternMix("fgci*" + big), UnknownWorkloadError);
    EXPECT_THROW(validateGeneratedName("gen:fgci:" + big),
                 UnknownWorkloadError);
    validateGeneratedName("gen:fgci:18446744073709551615");    // 2^64-1

    // Weights that each fit but sum past 2^64 - 1 wrapped the draw's
    // bound, to zero here: a division by zero when the program was
    // built.
    EXPECT_THROW(validateGeneratedName(
                     "gen:fgci*18446744073709551615+loops:0"),
                 UnknownWorkloadError);
    EXPECT_EQ(parsePatternMix("fgci*18446744073709551614+loops").size(),
              2u);
}

TEST(Generator, MutatedMixesParseOrFailCleanly)
{
    // Seeded byte flips, truncations, splices and hostile weights of a
    // few valid specs. A mutant either parses into shares that name a
    // pattern, weigh at least 1 and sum within 64 bits, or throws
    // UnknownWorkloadError; anything else (a crash, a sanitizer report,
    // another exception type) fails.
    const std::vector<std::string> specs = {
        "all", "fgci*3+loops", "fgci+noisy*2+loops*40", "dispatch+memory",
        "regions*7+steady+forward*1"};
    const std::string alphabet = "+*0123456789abcdefgilnoprsty ";
    const char *const tokens[] = {
        "*0", "*", "+", "**", "++", "*-1", "*2", "*18446744073709551615",
        "*18446744073709551616", "*99999999999999999999", "+all", "+loops",
        "+noisy*18446744073709551614",
    };
    Rng rng(20261019);
    int parsed = 0, rejected = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::string &doc = specs[rng.below(specs.size())];
        std::string m = doc;
        const size_t at = rng.below(m.size() + 1);
        switch (i % 4) {
          case 0:
            for (uint64_t n = 1 + rng.below(3); n > 0 && !m.empty(); --n) {
                m[rng.below(m.size())] = rng.chance(0.8)
                    ? alphabet[rng.below(alphabet.size())]
                    : static_cast<char>(rng.below(256));
            }
            break;
          case 1:
            m.resize(at);
            break;
          case 2: {
            // At the end of a term, where a weight or a term may go.
            size_t end = m.find('+', at);
            if (end == std::string::npos)
                end = m.size();
            m.insert(end, tokens[rng.below(std::size(tokens))]);
            break;
          }
          default: {
            const std::string &other = specs[rng.below(specs.size())];
            const size_t from = rng.below(other.size());
            m.insert(at, other.substr(from, 1 + rng.below(12)));
            break;
          }
        }
        std::vector<PatternShare> shares;
        try {
            shares = parsePatternMix(m);
        } catch (const UnknownWorkloadError &) {
            ++rejected;
            continue;
        }
        ++parsed;
        ASSERT_FALSE(shares.empty()) << m;
        uint64_t total = 0;
        for (const PatternShare &s : shares) {
            ASSERT_NE(s.pattern, nullptr) << m;
            ASSERT_GE(s.weight, 1u) << m;
            ASSERT_LE(s.weight, UINT64_MAX - total) << m;
            total += s.weight;
        }
    }
    // Both outcomes are exercised (most mutants break a name).
    EXPECT_GT(parsed, 150);
    EXPECT_GT(rejected, 1500);
}

TEST(Generator, UnknownWorkloadErrorListsTheMenu)
{
    try {
        (void)makeWorkload("bogus", 1, 1.0);
        FAIL() << "expected UnknownWorkloadError";
    } catch (const UnknownWorkloadError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
        EXPECT_NE(msg.find("compress"), std::string::npos) << msg;
        EXPECT_NE(msg.find("gen:"), std::string::npos) << msg;
        EXPECT_NE(msg.find("fgci"), std::string::npos) << msg;
    }
}

TEST(Generator, SameNameSeedScaleIsByteIdentical)
{
    for (const std::string name :
         {"gen:all:0", "gen:all:13", "gen:fgci*3+loops:2",
          "gen:memory:5"}) {
        const Workload a = makeWorkload(name, 7, 1.0);
        const Workload b = makeWorkload(name, 7, 1.0);
        ASSERT_EQ(a.program.code.size(), b.program.code.size()) << name;
        // Element-wise: Instruction::operator== compares every field
        // (raw memcmp would read indeterminate struct padding).
        EXPECT_TRUE(a.program.code == b.program.code) << name;
        EXPECT_EQ(a.program.dataInit, b.program.dataInit) << name;
        EXPECT_EQ(a.program.entry, b.program.entry) << name;
        EXPECT_EQ(a.maxInsts, b.maxInsts) << name;

        // Different seed or index must actually change the program —
        // otherwise the determinism test above proves nothing.
        const Workload c = makeWorkload(name, 8, 1.0);
        EXPECT_NE(programDigest(a.program), programDigest(c.program))
            << name;
    }
    EXPECT_NE(programDigest(makeWorkload("gen:all:0", 7, 1.0).program),
              programDigest(makeWorkload("gen:all:1", 7, 1.0).program));
}

TEST(Generator, ByteIdenticalAcrossProcesses)
{
    const std::string name = "gen:all:3";
    const uint64_t here =
        programDigest(makeWorkload(name, 7, 1.0).program);

    // A forked child rebuilds the program in a fresh process and ships
    // its digest back: equality rules out any dependence on this
    // process's address-space layout or allocation history.
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        close(fds[0]);
        const uint64_t h =
            programDigest(makeWorkload(name, 7, 1.0).program);
        const ssize_t n = write(fds[1], &h, sizeof(h));
        _exit(n == sizeof(h) ? 0 : 1);
    }
    close(fds[1]);
    uint64_t there = 0;
    ASSERT_EQ(read(fds[0], &there, sizeof(there)),
              static_cast<ssize_t>(sizeof(there)));
    close(fds[0]);
    EXPECT_EQ(here, there);
}

TEST(Generator, GeneratedPointsPassStandingOracles)
{
    TempDir store("gen-oracle-store");
    for (const std::string name : {"gen:all:0", "gen:noisy+memory:4"}) {
        harness::SweepPoint base;
        base.workload = name;
        base.model = "FG+MLB-RET";
        base.seed = 7;
        base.maxInsts = 20000;
        base.verify = true;

        const auto live = harness::SweepEngine::runPoint(base);
        ASSERT_TRUE(live.ok) << name << ": " << live.error;

        // Oracle: live == replay-from-capture, bit for bit (the first
        // run records into the store, the second replays the file).
        harness::SweepPoint rec = base;
        rec.traceDir = store.path();
        const auto recorded = harness::SweepEngine::runPoint(rec);
        ASSERT_TRUE(recorded.ok) << name << ": " << recorded.error;
        harness::SweepPoint rep = base;
        rep.traceDir = store.path();
        const auto replayed = harness::SweepEngine::runPoint(rep);
        ASSERT_TRUE(replayed.ok) << name << ": " << replayed.error;
        EXPECT_EQ(harness::statsToDict(live.stats),
                  harness::statsToDict(replayed.stats))
            << name;
    }
}

} // namespace tproc
