/**
 * @file
 * Paper-experiment tests (src/harness/paper.hh): the union point set
 * runs each distinct (workload, configuration, instruction count) once,
 * the tproc-paper-v1 document and rendered tables do not depend on
 * the sweep's thread count, and a run too short for the ablations is
 * refused.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/stats.hh"
#include "harness/paper.hh"

namespace tproc
{

namespace
{

/** Every configuration field the paper's points vary, resolved from
 *  the point as SweepEngine::runPoint resolves it. */
auto
identity(const harness::SweepPoint &p)
{
    const ProcessorConfig c =
        p.useConfig ? p.config : ProcessorConfig::forModel(p.model);
    return std::make_tuple(p.workload, p.maxInsts, p.seed,
                           c.selection.fg, c.selection.ntb, c.fgci,
                           static_cast<int>(c.cgci), c.numPEs,
                           c.selection.maxTraceLen, c.bit.maxTraceLen,
                           c.cgciReconvergeTimeout);
}

} // namespace

TEST(PaperPoints, UnionRunsEachDistinctPointOnce)
{
    const auto points = harness::paperPoints(400000, 1);

    std::set<decltype(identity(points[0]))> distinct;
    std::set<std::string> matrix;
    size_t ablation = 0;
    for (size_t i = 0; i < points.size(); ++i) {
        const harness::SweepPoint &p = points[i];
        EXPECT_EQ(p.index, i);
        EXPECT_TRUE(distinct.insert(identity(p)).second)
            << "duplicate point " << p.label() << " @" << p.maxInsts;
        // Verification leaves the statistics unchanged, so every point,
        // the ablation's included, checks retirement against the golden
        // model.
        EXPECT_TRUE(p.useConfig ? p.config.verifyRetirement : p.verify)
            << p.label();
        if (p.maxInsts == 400000) {
            EXPECT_FALSE(p.useConfig) << p.label();
            matrix.insert(p.label());
        } else {
            EXPECT_EQ(p.maxInsts, 200000u) << p.label();
            ++ablation;
        }
    }

    // All eight named models on all eight analogs, base(fg,ntb)
    // included.
    EXPECT_EQ(matrix.size(), 64u);
    for (const char *w : {"compress", "li", "vortex"}) {
        for (const char *m : {"base", "base(fg,ntb)", "FG+MLB-RET"})
            EXPECT_TRUE(matrix.count(std::string(w) + "/" + m)) << w << m;
    }

    // The ablation's 40 cells: {compress, li} x {FG+MLB-RET, base} x
    // (4 PE counts + 3 trace lengths + 3 bounds). The default machine
    // (16 PEs, length 32, bound 1024) appears once per side, and base
    // keeps its default bound in the bound cells: 2 x (8 + 6) points.
    EXPECT_EQ(ablation, 28u);
    EXPECT_EQ(points.size(), 92u);
}

TEST(PaperRun, DocumentIdenticalAcrossThreadCounts)
{
    harness::SweepEngine::Options serial;
    serial.threads = 1;
    harness::SweepEngine::Options parallel;
    parallel.threads = 3;
    const harness::PaperResult a = harness::runPaper(3000, 1, serial);
    const harness::PaperResult b = harness::runPaper(3000, 1, parallel);
    for (const auto &r : a.points)
        ASSERT_TRUE(r.ok) << r.point.label() << ": " << r.error;

    std::ostringstream doc_a, doc_b, text_a, text_b;
    harness::writePaperJson(doc_a, a);
    harness::writePaperJson(doc_b, b);
    harness::renderPaper(text_a, a);
    harness::renderPaper(text_b, b);
    EXPECT_EQ(doc_a.str(), doc_b.str());
    EXPECT_EQ(text_a.str(), text_b.str());

    // Wall-clock and scheduling facts stay out of the document.
    EXPECT_EQ(doc_a.str().find("wall_seconds"), std::string::npos);
    EXPECT_EQ(doc_a.str().find("attempts"), std::string::npos);

    const JsonValue doc = parseJson(doc_a.str());
    EXPECT_EQ(doc.at("schema").asString(), "tproc-paper-v1");
    EXPECT_EQ(doc.at("insts").asNumber(), 3000);
    EXPECT_EQ(doc.at("seed").asNumber(), 1);
    EXPECT_EQ(doc.at("table2").asArray().size(), 8u);
    EXPECT_EQ(doc.at("table5").asArray().size(), 8u);

    // Each point's label and stats read back with every counter
    // intact.
    const auto &points = doc.at("points").asArray();
    ASSERT_EQ(points.size(), a.points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].at("label").asString(),
                  a.points[i].point.label());
        EXPECT_EQ(statDictFromJson(points[i].at("stats")),
                  harness::statsToDict(a.points[i].stats));
    }

    // Sections in the paper's order.
    size_t at = 0;
    for (const char *title :
         {"TABLE 1:", "TABLE 2:", "TABLE 3:", "TABLE 4:", "TABLE 5:",
          "FIGURE 9:", "FIGURE 10:", "ABLATIONS:"}) {
        const size_t found = text_a.str().find(title, at);
        ASSERT_NE(found, std::string::npos) << title;
        at = found;
    }
}

TEST(PaperRun, FewerThanTwoInstructionsIsRejected)
{
    // The ablations run insts / 2, so 0 or 1 would print 0/0 gains;
    // both fail before any point or study runs.
    for (uint64_t insts : {0u, 1u}) {
        EXPECT_THROW(harness::paperPoints(insts, 1), std::invalid_argument);
        EXPECT_THROW(harness::runPaper(insts, 1, {}), std::invalid_argument);
    }
    EXPECT_EQ(harness::paperPoints(2, 1).size(), 92u);
}

} // namespace tproc
