/** @file Workload generator tests: determinism, emulation, profiles. */

#include <gtest/gtest.h>

#include <cmath>

#include "emulator/emulator.hh"
#include "study/branch_study.hh"
#include "workloads/workloads.hh"

namespace tproc
{

TEST(Workloads, AllBuildAndEmulate)
{
    for (const auto &name : workloadNames()) {
        Workload w = makeWorkload(name, 1, 0.02);   // tiny scale
        Emulator emu(w.program);
        uint64_t n = emu.run(w.maxInsts);
        EXPECT_TRUE(emu.halted()) << name;
        EXPECT_GT(n, 1000u) << name;
    }
}

TEST(Workloads, DeterministicPerSeed)
{
    Workload a = makeWorkload("gcc", 7, 0.02);
    Workload b = makeWorkload("gcc", 7, 0.02);
    ASSERT_EQ(a.program.code.size(), b.program.code.size());
    EXPECT_EQ(a.program.code, b.program.code);
    EXPECT_EQ(a.program.dataInit, b.program.dataInit);

    // Different seeds produce different data (same code).
    Workload c = makeWorkload("gcc", 8, 0.02);
    EXPECT_EQ(a.program.code, c.program.code);
    EXPECT_NE(a.program.dataInit, c.program.dataInit);
}

TEST(Workloads, UnknownNameThrowsListingTheMenu)
{
    // Library code must not kill the process: CLIs catch this, print
    // the menu, and exit 2 (docs/cli.md).
    try {
        (void)makeWorkload("nonesuch");
        FAIL() << "expected UnknownWorkloadError";
    } catch (const UnknownWorkloadError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown workload"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("nonesuch"), std::string::npos) << msg;
        EXPECT_NE(msg.find("compress"), std::string::npos) << msg;
    }
}

TEST(Workloads, ScaleMustGiveALoopCount)
{
    // NaN, infinities and scales <= 0 give no count, and 1e300 one
    // past INT64_MAX: each is refused before any program is built.
    for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, 0.0, -1.0,
                       1e300}) {
        EXPECT_THROW(makeWorkload("li", 1, bad), SimError) << bad;
        EXPECT_THROW(makeWorkload("gen:all:0", 1, bad), SimError) << bad;
    }
    // A tiny scale still runs one outer iteration, to HALT: a count
    // of 0 would wrap workloadEpilogue's countdown.
    for (const auto &name : workloadNames()) {
        Workload w = makeWorkload(name, 1, 1e-300);
        Emulator emu(w.program);
        emu.run(w.maxInsts);
        EXPECT_TRUE(emu.halted()) << name;
    }
}

/**
 * The branch profiles must keep the relative ordering the evaluation
 * depends on (Table 5): compress and go noisy, m88ksim/perl/vortex
 * clean, li backward-dominated, compress/jpeg FGCI-dominated.
 */
TEST(Workloads, ProfileOrdering)
{
    std::map<std::string, BranchStudy> s;
    for (const auto &name : workloadNames()) {
        Workload w = makeWorkload(name, 1);
        s[name] = studyBranches(w.program, 150000);
    }

    // Misprediction density ordering.
    EXPECT_GT(s["compress"].mispPerKilo(), s["gcc"].mispPerKilo());
    EXPECT_GT(s["go"].mispPerKilo(), s["jpeg"].mispPerKilo());
    EXPECT_GT(s["compress"].mispPerKilo(), 8.0);
    EXPECT_LT(s["m88ksim"].mispPerKilo(), 3.0);
    EXPECT_LT(s["vortex"].mispPerKilo(), 3.0);
    EXPECT_LT(s["perl"].mispPerKilo(), 4.0);

    // FGCI misprediction share: dominant for compress and jpeg.
    auto fg_share = [&](const std::string &n) {
        return static_cast<double>(s[n].fgciSmall.misps) /
            s[n].condMisps();
    };
    EXPECT_GT(fg_share("compress"), 0.3);
    EXPECT_GT(fg_share("jpeg"), 0.3);
    EXPECT_LT(fg_share("li"), 0.1);

    // Backward branches dominate li's mispredictions.
    EXPECT_GT(static_cast<double>(s["li"].backward.misps) /
                  s["li"].condMisps(),
              0.8);

    // jpeg's regions are the largest; compress's are small.
    EXPECT_GT(s["jpeg"].avgDynRegionSize(), 10.0);
    EXPECT_LT(s["compress"].avgDynRegionSize(), 8.0);

    // The "other forward" class exists where targeted.
    EXPECT_GT(s["gcc"].otherForward.execs, 0u);
    EXPECT_GT(s["go"].otherForward.execs, 0u);
    // And gcc/go exercise the FGCI >32 class.
    EXPECT_GT(s["gcc"].fgciLarge.execs, 0u);
    EXPECT_GT(s["go"].fgciLarge.execs, 0u);
}

} // namespace tproc
