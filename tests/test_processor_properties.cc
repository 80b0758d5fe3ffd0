/**
 * @file
 * Whole-processor property tests: every workload x every model runs a
 * verified slice (golden-model retirement checking panics on any control
 * or data mis-repair); invariants hold after every cycle; all models retire
 * the same instruction counts for the same program (architectural
 * equivalence); statistics are internally consistent.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/processor.hh"
#include "core/runner.hh"
#include "workloads/workloads.hh"

namespace tproc
{

namespace
{
constexpr uint64_t sliceInsts = 60000;
}

class WorkloadModel
    : public ::testing::TestWithParam<
          std::tuple<const char *, const char *>>
{};

TEST_P(WorkloadModel, VerifiedSlice)
{
    auto [wl, model] = GetParam();
    Workload w = makeWorkload(wl, 1);
    ProcessorConfig cfg = ProcessorConfig::forModel(model);

    Processor p(w.program, cfg);
    // Step manually and check the invariants (the scheduling sets among
    // them) after every cycle: a missed wakeup fails at the cycle it
    // happens, not as a watchdog bark much later.
    while (!p.done() && p.statsSoFar().retiredInsts < sliceInsts) {
        p.step();
        p.checkInvariants();
    }
    const ProcessorStats &s = p.statsSoFar();
    EXPECT_GE(s.retiredInsts, sliceInsts);
    EXPECT_GT(s.ipc(), 0.5);

    // Consistency: retired instructions live in retired traces.
    EXPECT_EQ(s.retiredTraceLenSum, s.retiredInsts);
    EXPECT_GE(s.dispatchedTraces,
              s.retiredTraces - 0 /* in-flight remainder is extra */);
    EXPECT_GE(s.avgRetiredTraceLen(), 1.0);
    EXPECT_LE(s.avgRetiredTraceLen(), 32.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, WorkloadModel,
    ::testing::Combine(
        ::testing::Values("compress", "gcc", "go", "jpeg", "li",
                          "m88ksim", "perl", "vortex"),
        ::testing::Values("base", "base(ntb)", "base(fg)", "base(fg,ntb)",
                          "RET", "MLB-RET", "FG", "FG+MLB-RET")));

TEST(ProcessorProperties, AllModelsRetireIdenticalStreams)
{
    // Architectural equivalence: for a program run to completion, every
    // model retires exactly the same number of instructions (the stream
    // itself is checked against the golden emulator inside the run).
    Workload w = makeWorkload("compress", 2, 0.01);
    uint64_t expected = 0;
    for (const char *m : {"base", "base(fg,ntb)", "RET", "MLB-RET", "FG",
                          "FG+MLB-RET"}) {
        ProcessorStats s = runModel(w.program, m);
        if (!expected)
            expected = s.retiredInsts;
        EXPECT_EQ(s.retiredInsts, expected) << m;
    }
}

TEST(ProcessorProperties, SeedsChangeDataNotCorrectness)
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        Workload w = makeWorkload("go", seed, 0.01);
        ProcessorStats s = runModel(w.program, "FG+MLB-RET");
        EXPECT_GT(s.retiredInsts, 10000u);
    }
}

TEST(ProcessorProperties, DeterministicRuns)
{
    Workload w = makeWorkload("li", 4, 0.01);
    ProcessorStats a = runModel(w.program, "MLB-RET");
    ProcessorStats b = runModel(w.program, "MLB-RET");
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retiredInsts, b.retiredInsts);
    EXPECT_EQ(a.mispEvents, b.mispEvents);
    EXPECT_EQ(a.cgciReconverged, b.cgciReconverged);
}

TEST(ProcessorProperties, SmallMachineStillCorrect)
{
    // Shrink everything: 2 PEs, short traces, tiny caches and buses.
    Workload w = makeWorkload("compress", 5, 0.005);
    ProcessorConfig cfg = ProcessorConfig::forModel("FG+MLB-RET");
    cfg.numPEs = 2;
    cfg.selection.maxTraceLen = 8;
    cfg.bit.maxTraceLen = 8;
    cfg.issuePerPe = 1;
    cfg.globalBuses = 2;
    cfg.maxBusesPerPe = 1;
    cfg.cacheBuses = 2;
    cfg.maxCacheBusesPerPe = 1;
    cfg.tcache.sizeBytes = 8 * 1024;
    cfg.icache.sizeBytes = 4 * 1024;
    cfg.dcache.sizeBytes = 4 * 1024;
    // Invariants every cycle: one issue slot per PE and short traces put
    // the most slots to sleep behind incomplete local producers.
    Processor p(w.program, cfg);
    while (!p.done()) {
        p.step();
        p.checkInvariants();
    }
    EXPECT_GT(p.statsSoFar().retiredInsts, 5000u);
}

namespace
{

/**
 * Run prog on cfg for max_insts under fault capture, stepping by hand
 * and checking the invariants after every cycle. Since the starved-bus
 * retirement fix (retirement waits for the head trace's queued
 * result-bus broadcasts instead of dropping them), every shape the
 * random property samples completes; a regression returns its
 * diagnostic instead of aborting the binary. @return "" on success,
 * otherwise the error message.
 */
std::string
runCheckingEveryCycle(const Program &prog, const ProcessorConfig &cfg,
                      uint64_t max_insts)
{
    try {
        ScopedErrorCapture capture;
        Processor p(prog, cfg);
        while (!p.done() && p.statsSoFar().retiredInsts < max_insts) {
            p.step();
            p.checkInvariants();
        }
        return "";
    } catch (const std::exception &e) {
        return e.what();
    }
}

} // namespace

TEST(ProcessorProperties, RandomConfigsComplete)
{
    // Randomized property over machine shapes: the golden workloads pin
    // the two reference configurations, this pins the corners. Random
    // shapes on random workload/seed pairs must complete (starved buses
    // + short traces used to deadlock into the watchdog; retirement now
    // drains the head trace's queued broadcasts first) with every
    // invariant, the wakeup invariant among them, holding after every
    // cycle. Seeded, so a failure reproduces exactly.
    const char *wls[] = {"compress", "gcc", "go", "jpeg", "li",
                         "m88ksim", "perl", "vortex"};
    const char *models[] = {"base", "base(ntb)", "base(fg)",
                            "base(fg,ntb)", "RET", "MLB-RET", "FG",
                            "FG+MLB-RET"};
    Rng rng(0x5eedf00d);
    int succeeded = 0;
    for (int round = 0; round < 20; ++round) {
        const char *wl = wls[rng.below(8)];
        const char *model = models[rng.below(8)];
        const uint64_t seed =
            static_cast<uint64_t>(rng.range(1, 1 << 20));
        ProcessorConfig cfg = ProcessorConfig::forModel(model);
        cfg.numPEs = static_cast<int>(1u << rng.below(5));  // 1..16
        cfg.issuePerPe = static_cast<int>(rng.range(1, 4));
        cfg.globalBuses = static_cast<int>(rng.range(1, 8));
        cfg.maxBusesPerPe =
            static_cast<int>(rng.range(1, cfg.globalBuses));
        cfg.cacheBuses = static_cast<int>(rng.range(1, 8));
        cfg.maxCacheBusesPerPe =
            static_cast<int>(rng.range(1, cfg.cacheBuses));
        const int len = static_cast<int>(rng.range(8, 32));
        cfg.selection.maxTraceLen = len;
        cfg.bit.maxTraceLen = len;
        // Keep the watchdog short: no sampled shape may need it, and a
        // reintroduced stall should fail this test fast.
        cfg.watchdogCycles = 20000;

        Workload w = makeWorkload(wl, seed, 0.01);
        const std::string error =
            runCheckingEveryCycle(w.program, cfg, 8000);

        std::ostringstream id;
        id << "round " << round << " (" << wl << "/" << model
           << " seed " << seed << ", " << cfg.numPEs << " PEs, issue "
           << cfg.issuePerPe << ", buses " << cfg.globalBuses << "/"
           << cfg.cacheBuses << ", len " << len << ")";
        ASSERT_TRUE(error.empty()) << id.str() << ": " << error;
        ++succeeded;
    }
    EXPECT_EQ(succeeded, 20);
}

TEST(ProcessorProperties, WatchdogRaisesStructuredError)
{
    // Starve the machine of forward progress on purpose (a watchdog
    // threshold of 1 cycle fires before the first trace can retire) and
    // check the structured error: typed, field-carrying, and stamped
    // with the identity a harness set. This is the contract sweep fault
    // isolation and the explorer's capture-on-failure rely on.
    Workload w = makeWorkload("compress", 1, 0.01);
    ProcessorConfig cfg = ProcessorConfig::forModel("base");
    cfg.watchdogCycles = 1;
    Processor p(w.program, cfg);
    p.setIdentity("workload=compress seed=1 model=base");
    try {
        ScopedErrorCapture capture;
        p.run(1000);
        FAIL() << "watchdog never fired";
    } catch (const WatchdogError &e) {
        EXPECT_GT(e.cycle, 1u);
        EXPECT_GT(e.stalledCycles, 1u);
        EXPECT_EQ(e.identity, "workload=compress seed=1 model=base");
        EXPECT_NE(std::string(e.what()).find("watchdog"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("workload=compress"),
                  std::string::npos);
    }
}

TEST(ProcessorProperties, SingleIssueWidePeSweep)
{
    // PE-count sweep preserves correctness and total work.
    Workload w = makeWorkload("jpeg", 6, 0.005);
    uint64_t expected = 0;
    for (int pes : {1, 2, 4, 8, 16}) {
        ProcessorConfig cfg = ProcessorConfig::forModel("base");
        cfg.numPEs = pes;
        ProcessorStats s = runConfig(w.program, cfg);
        if (!expected)
            expected = s.retiredInsts;
        EXPECT_EQ(s.retiredInsts, expected) << pes << " PEs";
    }
}

} // namespace tproc
