/**
 * @file
 * The golden gate in every build: replay each checked-in golden trace
 * through the timing model on all eight named models, with telemetry
 * sampling off and on, and require every counter to equal its
 * checked-in snapshot under tests/golden/stats. The CI golden job runs
 * the same comparison through tproc-sweep in one Release build; this
 * test runs it under every compiler, build type and sanitizer that
 * runs ctest, so a statistic that depends on any of them fails here.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/runner.hh"
#include "harness/golden.hh"
#include "harness/sweep.hh"
#include "replay/replay_source.hh"
#include "replay/trace_file.hh"
#include "workloads/workloads.hh"

namespace tproc
{

namespace
{

const std::string goldenDir = std::string(TPROC_SOURCE_DIR) +
                              "/tests/golden/";

} // namespace

TEST(Golden, ReplayedStatsMatchSnapshots)
{
    // The snapshots' instruction count, which names the traces too.
    constexpr uint64_t insts = 20000;
    for (const std::string &w : workloadNames()) {
        // Parsed directly, not through a TraceStore: the store would
        // recapture a missing or damaged trace into the source tree,
        // and here that must fail instead.
        const auto reader = std::make_shared<const replay::TraceReader>(
            goldenDir + "traces/" + w + "-s1-x1-i20000.tpt");
        for (const char *model :
             {"base", "base(ntb)", "base(fg)", "base(fg,ntb)", "RET",
              "MLB-RET", "FG", "FG+MLB-RET"}) {
            harness::SweepPoint p;
            p.workload = w;
            p.model = model;
            const StatDict expected = harness::readGoldenFile(
                goldenDir + "stats/" + harness::goldenFileName(p));
            // Sampling is a pure observer, so one snapshot holds for
            // both runs.
            for (uint64_t interval : {0, 512}) {
                ProcessorConfig cfg = ProcessorConfig::forModel(model);
                cfg.metricsInterval = interval;
                const ProcessorStats stats = runConfig(
                    reader->program(), cfg, insts,
                    std::make_unique<replay::ReplaySource>(reader));
                const auto drift = harness::diffStatDicts(
                    expected, harness::statsToDict(stats));
                for (const harness::GoldenDrift &d : drift) {
                    ADD_FAILURE() << p.label() << " (interval " << interval
                                  << ") " << harness::describeDrift(d);
                }
            }
        }
    }
}

} // namespace tproc
