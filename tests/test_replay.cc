/**
 * @file
 * Trace capture/replay tests: the binary container round trip, capture
 * as its own verification (the reader a capture returns equals a parse
 * of its file), the capture-once/parse-once/replay-many store, the
 * differential contract (replaying a recorded trace through the full
 * timing processor is bit-identical to live emulation for every seed
 * workload), negative cases for truncated, corrupted, resealed,
 * divergent and oversized files, capture atomicity under exceptions
 * and SIGKILL, and the golden-statistics helpers.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/hires_timer.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/runner.hh"
#include "emulator/emulator.hh"
#include "harness/golden.hh"
#include "harness/sweep.hh"
#include "program/builder.hh"
#include "replay/capture.hh"
#include "replay/codec.hh"
#include "replay/replay_source.hh"
#include "replay/trace_store.hh"
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

    std::string file(const std::string &name) const
    {
        return p + "/" + name;
    }

  private:
    std::string p;
};

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/** A tiny handwritten program exercising ALU, memory, and HALT. */
Program
tinyProgram()
{
    Program prog;
    prog.name = "tiny";
    auto add = [&prog](Opcode op, ArchReg rd, ArchReg rs1, ArchReg rs2,
                       int64_t imm) {
        prog.code.push_back({op, rd, rs1, rs2, imm});
    };
    add(Opcode::ADDI, 3, 0, 0, 5);
    add(Opcode::ADDI, 4, 0, 0, 7);
    add(Opcode::ADD, 5, 3, 4, 0);
    add(Opcode::ST, 0, 0, 5, 10);       // mem[10] <- r5
    add(Opcode::LD, 6, 0, 0, 10);       // r6 <- mem[10]
    add(Opcode::HALT, 0, 0, 0, 0);
    return prog;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// The block codec (the PROGZ chunk rides on it).
// ---------------------------------------------------------------------

namespace
{

std::string
codecRoundTrip(const std::string &plain)
{
    const replay::CodecResult r = replay::codecCompress(plain);
    return replay::codecDecompress(static_cast<uint8_t>(r.codec),
                                   r.bytes.data(), r.bytes.size(),
                                   plain.size());
}

} // anonymous namespace

TEST(TraceCodec, RoundTripsVariedInputs)
{
    // Empty, sub-minimum, runs (the RLE case), periodic patterns,
    // text, and incompressible pseudo-random bytes (the RAW fallback).
    std::vector<std::string> inputs = {
        "", "a", "abc", std::string(100000, '\0'),
        std::string(513, 'x'),
    };
    {
        std::string periodic;
        for (int i = 0; i < 5000; ++i)
            periodic += "pattern-" + std::to_string(i % 7);
        inputs.push_back(periodic);
    }
    {
        std::string rnd;
        uint64_t x = 0x9e3779b97f4a7c15ull;
        for (int i = 0; i < 4096; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            rnd.push_back(static_cast<char>(x & 0xff));
        }
        inputs.push_back(rnd);
    }
    for (const auto &plain : inputs) {
        EXPECT_EQ(codecRoundTrip(plain), plain)
            << "input size " << plain.size();
    }

    // Highly repetitive data must actually shrink.
    const std::string zeros(65536, '\0');
    const replay::CodecResult z = replay::codecCompress(zeros);
    EXPECT_EQ(z.codec, replay::CodecId::LZ);
    EXPECT_LT(z.bytes.size(), zeros.size() / 100);
}

TEST(TraceCodec, DecompressRejectsMalformedStreams)
{
    using replay::TraceError;
    // Unknown codec id.
    EXPECT_THROW(replay::codecDecompress(99, "abcd", 4, 4), TraceError);
    // RAW block whose length disagrees with the plaintext length.
    EXPECT_THROW(replay::codecDecompress(0, "abcd", 4, 5), TraceError);

    const std::string plain(1000, 'z');
    const std::string comp = replay::lzCompress(plain);
    ASSERT_LT(comp.size(), plain.size());
    // Truncated token stream: output ends before plainLen is reached.
    EXPECT_THROW(replay::lzDecompress(comp.data(), comp.size() - 1,
                                      plain.size()),
                 TraceError);
    // Wrong plaintext length: the stream keeps going past it.
    EXPECT_THROW(replay::lzDecompress(comp.data(), comp.size(),
                                      plain.size() - 1),
                 TraceError);
    // A match distance pointing before the start of the output.
    std::string bad;
    replay::putVarint(bad, (uint64_t{0} << 1) | 1);     // match, len 4
    replay::putVarint(bad, 7);                          // dist 7, empty out
    EXPECT_THROW(replay::lzDecompress(bad.data(), bad.size(), 4),
                 TraceError);
}

// ---------------------------------------------------------------------
// Container round trip.
// ---------------------------------------------------------------------

TEST(TraceRoundTrip, TinyProgramToHalt)
{
    TempDir dir("replay_tiny");
    const std::string path = dir.file("tiny.tpt");
    const Program prog = tinyProgram();

    replay::TraceMeta meta;
    meta.workload = "tiny";
    meta.programName = prog.name;
    auto cap = replay::captureProgramTrace(prog, meta, path);
    EXPECT_TRUE(cap->info().cleanHalt);
    EXPECT_EQ(cap->info().totalSteps, 6u);

    auto reader = std::make_shared<const replay::TraceReader>(path);
    EXPECT_EQ(reader->info().version, replay::traceVersion);
    EXPECT_EQ(reader->meta().workload, "tiny");
    EXPECT_TRUE(reader->info().cleanHalt);
    EXPECT_EQ(reader->info().totalSteps, 6u);
    EXPECT_EQ(reader->info().digests, 1u);
    EXPECT_EQ(reader->program().code.size(), prog.code.size());

    // The replayed stream must equal a fresh emulation step for step.
    Emulator emu(prog);
    replay::ReplaySource src(reader);
    while (!src.halted())
        EXPECT_EQ(emu.step(), src.step()) << "step " << src.instCount();
    EXPECT_TRUE(emu.halted());
    EXPECT_EQ(src.instCount(), 6u);
}

TEST(TraceRoundTrip, WorkloadProgramAndStreamSurvive)
{
    TempDir dir("replay_rt");
    const std::string path = dir.file("compress.tpt");
    const uint64_t cap = 5000;

    const Workload w = makeWorkload("compress", 1, 0.25);
    replay::TraceMeta meta;
    meta.workload = "compress";
    meta.seed = 1;
    meta.scale = 0.25;
    meta.captureCap = cap;
    meta.programName = w.program.name;
    auto res = replay::captureProgramTrace(w.program, meta, path);
    EXPECT_EQ(res->info().totalSteps, cap);

    replay::TraceReader reader(path);
    const Program &p = reader.program();
    EXPECT_EQ(p.name, w.program.name);
    EXPECT_EQ(p.entry, w.program.entry);
    ASSERT_EQ(p.code.size(), w.program.code.size());
    for (size_t i = 0; i < p.code.size(); ++i)
        EXPECT_EQ(p.code[i], w.program.code[i]) << "inst " << i;
    EXPECT_EQ(p.dataInit, w.program.dataInit);

    EXPECT_EQ(reader.info().digests, 2u);   // ceil(5000 / 4096)

    Emulator emu(w.program);
    replay::ReplaySource src(
        std::make_shared<const replay::TraceReader>(path));
    for (uint64_t n = 0; n < cap; ++n)
        ASSERT_EQ(emu.step(), src.step()) << "step " << n;
    EXPECT_THROW(src.step(), replay::TraceError);
}

TEST(TraceRoundTrip, CaptureCapSaturates)
{
    EXPECT_EQ(replay::captureCapFor(1000),
              1000 + replay::captureSlack);
    EXPECT_EQ(replay::captureCapFor(UINT64_MAX), UINT64_MAX);
    EXPECT_EQ(replay::captureCapFor(UINT64_MAX - 1), UINT64_MAX);
}

// ---------------------------------------------------------------------
// Capture is the verification: the reader a capture returns is the one
// a parse of the file it wrote produces.
// ---------------------------------------------------------------------

namespace
{

void
expectSameTrace(const replay::TraceReader &captured,
                const replay::TraceReader &parsed, const std::string &label)
{
    const Program &a = captured.program();
    const Program &b = parsed.program();
    EXPECT_EQ(a.name, b.name) << label;
    EXPECT_EQ(a.entry, b.entry) << label;
    EXPECT_TRUE(a.code == b.code) << label;
    EXPECT_EQ(a.dataInit, b.dataInit) << label;

    const replay::TraceInfo &x = captured.info();
    const replay::TraceInfo &y = parsed.info();
    EXPECT_EQ(x.meta.workload, y.meta.workload) << label;
    EXPECT_EQ(x.meta.seed, y.meta.seed) << label;
    EXPECT_EQ(x.meta.scale, y.meta.scale) << label;
    EXPECT_EQ(x.meta.captureCap, y.meta.captureCap) << label;
    EXPECT_EQ(x.meta.programName, y.meta.programName) << label;
    EXPECT_EQ(x.version, y.version) << label;
    EXPECT_EQ(x.totalSteps, y.totalSteps) << label;
    EXPECT_EQ(x.cleanHalt, y.cleanHalt) << label;
    EXPECT_EQ(x.codeSize, y.codeSize) << label;
    EXPECT_EQ(x.dataInitSize, y.dataInitSize) << label;
    EXPECT_EQ(x.fileBytes, y.fileBytes) << label;
    EXPECT_EQ(x.digests, y.digests) << label;
    ASSERT_EQ(x.chunkStats.size(), y.chunkStats.size()) << label;
    for (size_t i = 0; i < x.chunkStats.size(); ++i) {
        EXPECT_EQ(x.chunkStats[i].type, y.chunkStats[i].type) << label;
        EXPECT_EQ(x.chunkStats[i].codec, y.chunkStats[i].codec) << label;
        EXPECT_EQ(x.chunkStats[i].storedBytes, y.chunkStats[i].storedBytes)
            << label;
        EXPECT_EQ(x.chunkStats[i].plainBytes, y.chunkStats[i].plainBytes)
            << label;
    }
}

} // anonymous namespace

TEST(TraceCapture, ReaderEqualsAParseOfItsFile)
{
    TempDir dir("replay_capture");
    std::vector<std::string> names = workloadNames();
    for (const char *mix : {"fgci", "noisy", "loops"})
        names.push_back(generatedName(mix, 0));
    const ProcessorConfig cfg = ProcessorConfig::forModel("FG+MLB-RET");
    for (const std::string &name : names) {
        const std::string path = dir.file("capture.tpt");
        const auto captured =
            replay::captureWorkloadTrace(name, 1, 1.0, 20000, path);
        const auto parsed = std::make_shared<const replay::TraceReader>(path);
        expectSameTrace(*captured, *parsed, name);

        const ProcessorStats from_capture =
            runConfig(captured->program(), cfg, 20000,
                      std::make_unique<replay::ReplaySource>(captured));
        const ProcessorStats from_parse =
            runConfig(parsed->program(), cfg, 20000,
                      std::make_unique<replay::ReplaySource>(parsed));
        EXPECT_EQ(harness::statsToDict(from_capture),
                  harness::statsToDict(from_parse))
            << name;
    }
}

TEST(TraceCapture, UnsortedImageNormalisedAsAParseWould)
{
    // The image is stored in the order the program holds it, address
    // deltas wrapping backwards; capture reads it back through the
    // decoder, which normalises it (last entry for an address wins).
    TempDir dir("replay_capture_image");
    Program prog = tinyProgram();
    prog.dataInit = {{8, 1}, {5, 2}, {8, 3}, {5, -4}, {3, 7}};
    replay::TraceMeta meta;
    meta.programName = prog.name;
    const std::string path = dir.file("image.tpt");
    const auto captured = replay::captureProgramTrace(prog, meta, path);
    EXPECT_EQ(captured->program().dataInit,
              (DataImage{{3, 7}, {5, -4}, {8, 3}}));
    EXPECT_EQ(captured->info().dataInitSize, 3u);
    expectSameTrace(*captured, replay::TraceReader(path), "image");
}

// ---------------------------------------------------------------------
// Differential contract: replay == live for every seed workload.
// ---------------------------------------------------------------------

TEST(ReplayDifferential, AllWorkloadsBitIdenticalToLive)
{
    // base and FG+MLB-RET, so the FGCI/CGCI recovery paths run under
    // replay too.
    TempDir dir("replay_diff");
    for (const auto &name : workloadNames()) {
        for (const char *model : {"base", "FG+MLB-RET"}) {
            harness::SweepPoint p;
            p.workload = name;
            p.model = model;
            p.seed = 1;
            p.scale = 0.25;
            p.maxInsts = 8000;
            p.verify = true;    // retirement checked against the stream

            auto live = harness::SweepEngine::runPoint(p);
            ASSERT_TRUE(live.ok) << p.label() << ": " << live.error;

            p.traceDir = dir.path();
            auto replayed = harness::SweepEngine::runPoint(p);
            ASSERT_TRUE(replayed.ok)
                << p.label() << ": " << replayed.error;

            // Full flattened counter dict, bit for bit. Replay mode also
            // re-verified every retired instruction against the
            // recorded stream (p.verify), so the retired-instruction
            // streams are identical by construction or the run would
            // have failed.
            EXPECT_EQ(harness::statsToDict(live.stats),
                      harness::statsToDict(replayed.stats))
                << p.label();
        }
    }
}

TEST(ReplayDifferential, SecondModelReplaysSameTrace)
{
    TempDir dir("replay_two_models");
    harness::SweepPoint p;
    p.workload = "li";
    p.seed = 1;
    p.scale = 0.25;
    p.maxInsts = 8000;
    p.traceDir = dir.path();

    p.model = "base";
    auto base = harness::SweepEngine::runPoint(p);
    ASSERT_TRUE(base.ok) << base.error;

    // One trace file serves every model of the workload.
    size_t traces = 0;
    for (const auto &e : fs::directory_iterator(dir.path()))
        traces += e.path().extension() == ".tpt" ? 1 : 0;
    EXPECT_EQ(traces, 1u);

    p.model = "FG+MLB-RET";
    auto fg = harness::SweepEngine::runPoint(p);
    ASSERT_TRUE(fg.ok) << fg.error;

    p.traceDir.clear();
    auto fg_live = harness::SweepEngine::runPoint(p);
    ASSERT_TRUE(fg_live.ok) << fg_live.error;
    EXPECT_EQ(harness::statsToDict(fg_live.stats),
              harness::statsToDict(fg.stats));
}

TEST(ReplayDifferential, EngineParallelReplayIdenticalToLiveSerial)
{
    TempDir dir("replay_engine");
    auto points = harness::crossPoints({"compress", "go"},
                                       {"base", "FG+MLB-RET"}, 1, 6000,
                                       /*verify=*/true);
    for (auto &p : points)
        p.scale = 0.25;

    harness::SweepEngine::Options serial_opts;
    serial_opts.threads = 1;
    auto live = harness::SweepEngine(serial_opts).run(points);

    for (auto &p : points)
        p.traceDir = dir.path();
    harness::SweepEngine::Options par_opts;
    par_opts.threads = 3;
    auto replayed = harness::SweepEngine(par_opts).run(points);

    ASSERT_EQ(live.size(), replayed.size());
    for (size_t i = 0; i < live.size(); ++i) {
        ASSERT_TRUE(live[i].ok) << live[i].error;
        ASSERT_TRUE(replayed[i].ok) << replayed[i].error;
        EXPECT_EQ(harness::statsToDict(live[i].stats),
                  harness::statsToDict(replayed[i].stats))
            << points[i].label();
    }
}

// ---------------------------------------------------------------------
// Negative cases: truncation, corruption, exhaustion.
// ---------------------------------------------------------------------

namespace
{

std::string
makeValidTrace(const TempDir &dir, const std::string &name)
{
    const std::string path = dir.file(name);
    const Workload w = makeWorkload("compress", 1, 0.25);
    replay::TraceMeta meta;
    meta.workload = "compress";
    meta.seed = 1;
    meta.scale = 0.25;
    meta.captureCap = 2000;
    meta.programName = w.program.name;
    replay::captureProgramTrace(w.program, meta, path);
    return path;
}

} // anonymous namespace

TEST(TraceCodec, ChunkStatsReportCompression)
{
    TempDir dir("replay_chunkstats");
    const std::string path = makeValidTrace(dir, "stats.tpt");
    replay::TraceReader reader(path);
    const auto &stats = reader.info().chunkStats;
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].type, replay::ChunkType::PROGZ);
    EXPECT_LT(stats[0].storedBytes, stats[0].plainBytes);
    EXPECT_EQ(stats[1].type, replay::ChunkType::DGST);
    EXPECT_EQ(stats[1].storedBytes, 8 * reader.info().digests);
    EXPECT_EQ(stats[1].plainBytes, stats[1].storedBytes);

    // The codec shrinks every analog's program at least 3x (jpeg is the
    // lowest, at about 3.05x). PROGZ holds the program, which does not
    // depend on how long the capture ran, so a short capture will do.
    for (const std::string &name : workloadNames()) {
        const auto analog = replay::captureWorkloadTrace(
            name, 1, 1.0, 100, dir.file(name + ".tpt"));
        const replay::ChunkStat &progz = analog->info().chunkStats.at(0);
        ASSERT_EQ(progz.type, replay::ChunkType::PROGZ) << name;
        EXPECT_GE(progz.plainBytes, 3 * progz.storedBytes)
            << name << ": " << progz.plainBytes << " plaintext bytes, "
            << progz.storedBytes << " stored";
    }
}

TEST(ReplayNegative, TruncatedFileRejected)
{
    TempDir dir("replay_trunc");
    const std::string good = makeValidTrace(dir, "good.tpt");
    const std::string bytes = readBytes(good);
    ASSERT_GT(bytes.size(), 64u);

    for (size_t keep : {bytes.size() - 1, bytes.size() / 2, size_t{20},
                        size_t{4}}) {
        const std::string path = dir.file("trunc.tpt");
        writeBytes(path, bytes.substr(0, keep));
        EXPECT_THROW(replay::TraceReader reader(path), replay::TraceError)
            << "kept " << keep << " bytes";
        std::string why;
        EXPECT_FALSE(replay::TraceStore::validFor(path, "compress", 1,
                                                  0.25, 1000, &why));
        EXPECT_FALSE(why.empty());
    }
}

TEST(ReplayNegative, CorruptedBytesRejected)
{
    TempDir dir("replay_corrupt");
    const std::string good = makeValidTrace(dir, "good.tpt");
    const std::string bytes = readBytes(good);

    // Flip one byte in several places: magic, version, the compressed
    // program, the digest chain, END.
    for (size_t at : {size_t{0}, size_t{5}, bytes.size() / 3,
                      2 * bytes.size() / 3, bytes.size() - 30,
                      bytes.size() - 3}) {
        std::string bad = bytes;
        bad[at] = static_cast<char>(bad[at] ^ 0x40);
        const std::string path = dir.file("bad.tpt");
        writeBytes(path, bad);
        EXPECT_THROW(replay::TraceReader reader(path), replay::TraceError)
            << "flipped byte " << at;
    }
}

TEST(ReplayNegative, StepStreamVersionsAskForReRecord)
{
    // Versions 1 and 2 stored the step stream; the reader names the
    // cure, and the store recaptures such a file like any unreadable
    // one.
    TempDir dir("replay_oldversion");
    replay::TraceStore store(dir.path());
    const std::string path = store.tracePath("compress", 1, 0.25, 1000);
    std::string bytes = readBytes(makeValidTrace(dir, "good.tpt"));
    for (char version : {1, 2}) {
        bytes[4] = version;
        writeBytes(path, bytes);
        try {
            replay::TraceReader reader(path);
            ADD_FAILURE() << "version " << int{version} << " accepted";
        } catch (const replay::TraceError &e) {
            EXPECT_NE(std::string(e.what()).find("re-record"),
                      std::string::npos)
                << e.what();
        }
        replay::TraceStore::dropCache();
        EXPECT_TRUE(store.ensure("compress", 1, 0.25, 1000).captured);
    }
    EXPECT_TRUE(replay::TraceStore::validFor(path, "compress", 1, 0.25,
                                             1000));
}

namespace
{

/** Where the first chunk of the given type starts, or npos. */
size_t
findChunk(const std::string &bytes, replay::ChunkType type)
{
    size_t pos = 8;
    while (pos + 9 + 8 <= bytes.size()) {
        replay::ByteCursor hdr(bytes.data() + pos, 9);
        const uint8_t t = hdr.u8();
        const uint32_t len = hdr.u32();
        if (static_cast<replay::ChunkType>(t) == type)
            return pos;
        pos += 9 + static_cast<size_t>(len) + 8;
    }
    return std::string::npos;
}

/**
 * Rewrite the first chunk of the given type with mutate(payload),
 * recomputing that chunk's checksum — so the reader gets past it and
 * only END's digest, or the decoders once resealEnd() has run, can
 * reject the file.
 */
std::string
rewriteChunk(const std::string &bytes, replay::ChunkType type,
             const std::function<void(std::string &)> &mutate)
{
    const size_t pos = findChunk(bytes, type);
    if (pos == std::string::npos) {
        ADD_FAILURE() << "chunk type " << static_cast<int>(type)
                      << " not found";
        return bytes;
    }
    replay::ByteCursor hdr(bytes.data() + pos, 9);
    const uint8_t t = hdr.u8();
    const uint32_t len = hdr.u32();
    const uint32_t records = hdr.u32();
    std::string payload = bytes.substr(pos + 9, len);
    mutate(payload);
    std::string out = bytes.substr(0, pos);
    out.push_back(static_cast<char>(t));
    replay::putU32(out, static_cast<uint32_t>(payload.size()));
    replay::putU32(out, records);
    out += payload;
    replay::putU64(out, replay::fnv1a(out.data() + pos, out.size() - pos));
    out += bytes.substr(pos + 9 + len + 8);
    return out;
}

/** Reseal END as a writer would: its digest over every byte before
 *  it, then its own checksum. */
std::string
resealEnd(const std::string &bytes)
{
    const uint64_t sealed = replay::fnv1a(
        bytes.data(), findChunk(bytes, replay::ChunkType::END));
    return rewriteChunk(bytes, replay::ChunkType::END,
                        [sealed](std::string &p) {
        ASSERT_EQ(p.size(), 17u);
        p.resize(9);
        replay::putU64(p, sealed);
    });
}

} // anonymous namespace

TEST(ReplayNegative, ProgzCorruptionsRejectedByName)
{
    TempDir dir("replay_zneg");
    const std::string good = makeValidTrace(dir, "good.tpt");
    const std::string bytes = readBytes(good);

    auto expectNamedError = [&](const std::string &mutated,
                                const std::string &needle,
                                const std::string &label) {
        const std::string path = dir.file("bad.tpt");
        writeBytes(path, mutated);
        try {
            replay::TraceReader reader(path);
            ADD_FAILURE() << label << ": reader accepted the file";
        } catch (const replay::TraceError &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << label << ": got '" << e.what() << "'";
        }
    };

    const auto progz = [&](const std::function<void(std::string &)> &f) {
        return resealEnd(rewriteChunk(bytes, replay::ChunkType::PROGZ, f));
    };
    // Unknown codec id (first byte of the codec envelope).
    expectNamedError(progz([](std::string &p) {
                         p[0] = static_cast<char>(99);
                     }),
                     "unknown codec id", "codec");
    // Plaintext checksum mismatch: decode succeeds but the stored
    // plaintext FNV (after codec byte + plainLen varint) is wrong.
    expectNamedError(progz([](std::string &p) {
                         size_t i = 1;
                         while (static_cast<uint8_t>(p[i]) & 0x80)
                             ++i;
                         ++i;
                         p[i] = static_cast<char>(p[i] ^ 0x40);
                     }),
                     "plaintext checksum mismatch", "fnv");
    // Truncated compressed payload (every seal recomputed, so only the
    // codec's own bounds checking can catch it).
    expectNamedError(progz([](std::string &p) { p.resize(p.size() - 8); }),
                     "truncated", "trunc");
    // A plaintext claim one byte over what the budgets admit is refused
    // before the codec runs: these tokens would not decode. At the cap
    // itself the codec runs and finds none.
    const auto claim = [&](uint64_t plain_len) {
        return progz([plain_len](std::string &p) {
            p.assign(1, static_cast<char>(replay::CodecId::LZ));
            replay::putVarint(p, plain_len);
            replay::putU64(p, 0);
        });
    };
    expectNamedError(claim(replay::maxPlainTraceBytes + 1),
                     "implausible plaintext size", "over the cap");
    expectNamedError(claim(replay::maxPlainTraceBytes), "truncated",
                     "at the cap");
    // The same edit with END left stale: END's digest rejects it before
    // any decoder runs.
    expectNamedError(rewriteChunk(bytes, replay::ChunkType::PROGZ,
                                  [](std::string &p) {
                                      p[0] = static_cast<char>(99);
                                  }),
                     "END digest mismatch", "stale END");
}

TEST(ReplayNegative, NonTraceFileRejected)
{
    TempDir dir("replay_notrace");
    const std::string path = dir.file("nope.tpt");
    writeBytes(path, "this is not a trace file at all");
    EXPECT_THROW(replay::TraceReader reader(path), replay::TraceError);
    EXPECT_THROW(replay::TraceReader reader(dir.file("absent.tpt")),
                 replay::TraceError);
}

TEST(ReplayNegative, ExhaustedTraceThrowsInsteadOfReplayingShort)
{
    TempDir dir("replay_short");
    const std::string path = dir.file("short.tpt");
    const Workload w = makeWorkload("compress", 1, 0.25);
    replay::TraceMeta meta;
    meta.workload = "compress";
    meta.captureCap = 100;      // far too short, and no HALT
    replay::captureProgramTrace(w.program, meta, path);

    auto reader = std::make_shared<const replay::TraceReader>(path);
    EXPECT_FALSE(reader->info().cleanHalt);
    replay::ReplaySource src(reader);
    StepResult s;
    for (int i = 0; i < 100; ++i)
        s = src.step();
    EXPECT_FALSE(src.halted());
    // Structured TraceError (no capture needed): exhaustion is a
    // property of the trace file, and harnesses attribute it by type.
    try {
        src.step();
        FAIL() << "exhausted trace replayed past its end";
    } catch (const replay::TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("re-record"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// The data image in PROG chunks: decoders normalise it, and resealed
// META/PROG mutants parse or fail with a structured error.
// ---------------------------------------------------------------------

namespace
{

/** The plaintext inside a PROGZ chunk's codec envelope. */
std::string
openPlaintext(const std::string &payload)
{
    replay::ByteCursor z(payload.data(), payload.size());
    const uint8_t codec = z.u8();
    const uint64_t plain_len = z.varint();
    z.u64();
    const size_t n = z.remaining();
    return replay::codecDecompress(codec, z.take(n), n,
                                   static_cast<size_t>(plain_len));
}

/** A PROGZ codec envelope storing plain verbatim (the RAW codec), with
 *  its plaintext digest. */
std::string
sealPlaintext(const std::string &plain)
{
    std::string payload;
    payload.push_back(static_cast<char>(replay::CodecId::RAW));
    replay::putVarint(payload, plain.size());
    replay::putU64(payload, replay::fnv1a(plain.data(), plain.size()));
    payload.append(plain);
    return payload;
}

bool
sortedUnique(const DataImage &image)
{
    return std::adjacent_find(image.begin(), image.end(),
                              [](const auto &x, const auto &y) {
                                  return x.first >= y.first;
                              }) == image.end();
}

/** One bit flip, truncation, splice (a copy of one slice inserted
 *  elsewhere) or erased slice, chosen by rng. */
void
mutateBytes(std::string &b, Rng &rng)
{
    if (b.empty())
        return;
    const size_t from = rng.below(b.size());
    const size_t len = 1 + rng.below(std::min<size_t>(b.size() - from, 64));
    switch (rng.below(4)) {
      case 0:
        b[from] = static_cast<char>(b[from] ^ (1 << rng.below(8)));
        break;
      case 1:
        b.resize(from);
        break;
      case 2:
        b.insert(rng.below(b.size() + 1), b.substr(from, len));
        break;
      default:
        b.erase(from, len);
        break;
    }
}

} // anonymous namespace

TEST(TraceRoundTrip, DecoderNormalisesOutOfOrderImages)
{
    // A hand-built PROGZ image that a map would have read with "last
    // write wins": the decoder must produce the sorted, unique image
    // that rule implies. The tiny program never reads these words, so
    // the trace still verifies.
    TempDir dir("replay_image");
    const Program tiny = tinyProgram();
    ASSERT_TRUE(tiny.dataInit.empty());
    replay::TraceMeta meta;
    meta.programName = tiny.name;
    const std::string path = dir.file("image.tpt");
    replay::captureProgramTrace(tiny, meta, path);

    // An empty image is the plaintext's last two bytes (count 0,
    // address-stream length 0); replace them with address deltas
    // 5, 0, 3, 0 (addresses 5, 5, 8, 8), then reseal everything.
    writeBytes(path, resealEnd(rewriteChunk(
        readBytes(path), replay::ChunkType::PROGZ, [](std::string &p) {
            std::string plain = openPlaintext(p);
            ASSERT_EQ(plain.substr(plain.size() - 2),
                      std::string(2, '\0'));
            plain.resize(plain.size() - 2);
            std::string addrs, values;
            for (uint64_t d : {5, 0, 3, 0})
                replay::putVarint(addrs, d);
            for (int64_t v : {1, 2, 3, -4})
                replay::putSvarint(values, v);
            replay::putVarint(plain, 4);
            replay::putVarint(plain, addrs.size());
            plain += addrs + values;
            p = sealPlaintext(plain);
        })));
    replay::TraceReader reader(path);
    EXPECT_EQ(reader.program().dataInit, (DataImage{{5, 2}, {8, -4}}));
    EXPECT_EQ(reader.info().dataInitSize, 2u);
}

TEST(TraceRoundTrip, EveryImageSurvives)
{
    TempDir dir("replay_images");
    std::vector<std::string> names = workloadNames();
    names.push_back(generatedName("loops", 3));
    for (const std::string &name : names) {
        const Workload w = makeWorkload(name);
        ASSERT_TRUE(sortedUnique(w.program.dataInit)) << name;
        replay::TraceMeta meta;
        meta.workload = name;
        meta.captureCap = 100;
        meta.programName = w.program.name;
        const std::string path = dir.file("image.tpt");
        replay::captureProgramTrace(w.program, meta, path);
        replay::TraceReader reader(path);
        EXPECT_EQ(reader.program().dataInit, w.program.dataInit) << name;
    }
}

TEST(TraceFuzz, ResealedMutantsVerifyOrFailCleanly)
{
    // Each mutant edits one chunk and reseals its checksum (a PROGZ
    // mutant edits the plaintext and reseals the codec envelope too),
    // so it gets past the container checksums. Half of the META, PROGZ
    // and DGST mutants leave END as it was, and END's digest must
    // reject them. The rest, and every END mutant, are resealed
    // through END: they reach the decoders and the re-emulation and
    // must verify or throw TraceError. A mutant that verifies is
    // replayed through the processor.
    TempDir dir("replay_fuzz");
    Rng rng(20261017);
    const Workload w = makeWorkload("li", 1, 0.25);
    replay::TraceMeta meta;
    meta.workload = "li";
    meta.scale = 0.25;
    meta.captureCap = 2500;
    meta.programName = w.program.name;
    const ProcessorConfig base = ProcessorConfig::forModel("base");

    const std::string good = dir.file("good.tpt");
    replay::captureProgramTrace(w.program, meta, good);
    const std::string bytes = readBytes(good);
    // Open the PROGZ envelope once (this rewrite only reads it).
    std::string prog_plain;
    rewriteChunk(bytes, replay::ChunkType::PROGZ, [&](std::string &p) {
        prog_plain = openPlaintext(p);
    });

    const replay::ChunkType targets[] = {
        replay::ChunkType::META, replay::ChunkType::PROGZ,
        replay::ChunkType::DGST, replay::ChunkType::END};
    int stale_end = 0, parsed = 0, replayed = 0;
    for (int i = 0; i < 300; ++i) {
        const replay::ChunkType type = targets[i % 4];
        const bool through_end =
            type == replay::ChunkType::END || (i / 4) % 2 == 1;
        std::string mutant =
            rewriteChunk(bytes, type, [&](std::string &p) {
                if (type == replay::ChunkType::PROGZ) {
                    std::string plain = prog_plain;
                    mutateBytes(plain, rng);
                    p = sealPlaintext(plain);
                } else {
                    mutateBytes(p, rng);
                }
            });
        if (through_end && type != replay::ChunkType::END)
            mutant = resealEnd(mutant);
        const std::string path = dir.file("mutant.tpt");
        writeBytes(path, mutant);
        std::shared_ptr<const replay::TraceReader> reader;
        try {
            reader = std::make_shared<const replay::TraceReader>(path);
        } catch (const replay::TraceError &e) {
            if (!through_end) {
                ++stale_end;
                EXPECT_NE(std::string(e.what()).find("END digest mismatch"),
                          std::string::npos)
                    << "mutant " << i << ": " << e.what();
            }
            continue;
        }
        ASSERT_TRUE(through_end) << "mutant " << i << " beat a stale END";
        ++parsed;
        ASSERT_TRUE(sortedUnique(reader->program().dataInit))
            << "mutant " << i;
        ScopedErrorCapture capture;
        try {
            runConfig(reader->program(), base, 2000,
                      std::make_unique<replay::ReplaySource>(reader));
            ++replayed;
        } catch (const SimError &) {
        } catch (const replay::TraceError &) {
        }
    }
    // Both paths are exercised: stale ENDs are caught, and the META-only
    // edits resealed through END verify and replay cleanly.
    EXPECT_GT(stale_end, 0);
    EXPECT_GT(parsed, 0);
    EXPECT_GT(replayed, 0);
}

// ---------------------------------------------------------------------
// Verification by re-emulation: divergence, bounded work, registers.
// ---------------------------------------------------------------------

namespace
{

/** li; a 3000-iteration two-instruction loop; `addi r4, r0, imm`
 *  first executed at step 6001, in digest chunk 1; halt. */
Program
lateImmediate(int64_t imm)
{
    ProgramBuilder b("late");
    b.li(3, 3000);
    const auto top = b.newLabel();
    b.bind(top);
    b.addi(3, 3, -1);
    b.bne(3, 0, top);
    b.addi(4, 0, imm);
    b.halt();
    return b.finish();
}

/** Expect parsing path to throw a TraceError whose text holds needle. */
void
expectRejected(const std::string &path, const std::string &needle)
{
    try {
        replay::TraceReader reader(path);
        ADD_FAILURE() << "reader accepted " << path;
    } catch (const replay::TraceError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "got '" << e.what() << "'";
    }
}

} // anonymous namespace

TEST(TraceVerify, ChangedImmediateNamesFirstDivergentChunk)
{
    // Splice the PROGZ chunk of a program that differs in one executed
    // immediate into a trace, and reseal END: every checksum and digest
    // of the container holds, and only re-emulation finds the change.
    TempDir dir("replay_diverge");
    replay::TraceMeta meta;
    meta.programName = "late";
    const std::string path = dir.file("late.tpt");
    const std::string other = dir.file("other.tpt");
    replay::captureProgramTrace(lateImmediate(42), meta, path);
    replay::captureProgramTrace(lateImmediate(43), meta, other);
    {
        replay::TraceReader reader(path);
        EXPECT_EQ(reader.info().totalSteps, 6003u);
        EXPECT_EQ(reader.info().digests, 2u);
    }

    const std::string bytes = readBytes(path);
    const std::string donor = readBytes(other);
    const size_t at = findChunk(bytes, replay::ChunkType::PROGZ);
    const size_t donor_at = findChunk(donor, replay::ChunkType::PROGZ);
    const size_t len = findChunk(bytes, replay::ChunkType::DGST) - at;
    const size_t donor_len =
        findChunk(donor, replay::ChunkType::DGST) - donor_at;
    std::string spliced = bytes.substr(0, at) +
        donor.substr(donor_at, donor_len) + bytes.substr(at + len);
    writeBytes(path, resealEnd(spliced));
    expectRejected(path, "digest chunk 1 (steps 4096..6002) differs");
}

TEST(TraceVerify, EarlyHaltAndHaltFlagMismatchNamed)
{
    // The same 3000-iteration loop, then `addi; halt` in the captured
    // program but `halt` at once in the spliced one: the first 4096
    // steps agree, and re-emulation halts inside digest chunk 1.
    TempDir dir("replay_halt");
    auto program = [](bool extra) {
        ProgramBuilder b("halt");
        b.li(3, 3000);
        const auto top = b.newLabel();
        b.bind(top);
        b.addi(3, 3, -1);
        b.bne(3, 0, top);
        if (extra)
            b.addi(4, 0, 1);
        b.halt();
        return b.finish();
    };
    replay::TraceMeta meta;
    meta.programName = "halt";
    const std::string path = dir.file("halt.tpt");
    const std::string other = dir.file("early.tpt");
    const auto full = replay::captureProgramTrace(program(true), meta, path);
    const auto early =
        replay::captureProgramTrace(program(false), meta, other);
    ASSERT_EQ(early->info().totalSteps + 1, full->info().totalSteps);

    const std::string bytes = readBytes(path);
    const std::string donor = readBytes(other);
    const size_t at = findChunk(bytes, replay::ChunkType::PROGZ);
    const size_t donor_at = findChunk(donor, replay::ChunkType::PROGZ);
    const size_t len = findChunk(bytes, replay::ChunkType::DGST) - at;
    const size_t donor_len =
        findChunk(donor, replay::ChunkType::DGST) - donor_at;
    writeBytes(path, resealEnd(bytes.substr(0, at) +
                               donor.substr(donor_at, donor_len) +
                               bytes.substr(at + len)));
    expectRejected(path, "digest chunk 1 (steps 4096.." +
                             std::to_string(full->info().totalSteps - 1) +
                             ") differs: the program halts after " +
                             std::to_string(early->info().totalSteps) +
                             " steps");

    // A capture that stopped at its cap, with END's halt flag set.
    meta.captureCap = 5000;
    replay::captureProgramTrace(program(true), meta, path);
    writeBytes(path, rewriteChunk(readBytes(path), replay::ChunkType::END,
                                  [](std::string &p) { p[8] = 1; }));
    expectRejected(path, "END says the execution halts after 5000 steps, "
                         "but the program runs on");
}

TEST(TraceVerify, EndClaimBeyondDigestChainRejectedBeforeEmulation)
{
    // `spin: jmp spin` never halts, so emulating the claimed steps
    // would not finish: the claim must fail on the chain's length.
    TempDir dir("replay_overclaim");
    Program spin;
    spin.name = "spin";
    spin.code.push_back({Opcode::JMP, 0, 0, 0, 0});
    replay::TraceMeta meta;
    meta.programName = spin.name;
    meta.captureCap = replay::stepsPerDigest;
    const std::string good = dir.file("spin.tpt");
    replay::captureProgramTrace(spin, meta, good);
    const std::string bytes = readBytes(good);

    for (uint64_t claim : {uint64_t{replay::stepsPerDigest} + 1,
                           uint64_t{1} << 62}) {
        const std::string path = dir.file("claim.tpt");
        writeBytes(path, rewriteChunk(bytes, replay::ChunkType::END,
                                      [claim](std::string &p) {
                                          std::string total;
                                          replay::putU64(total, claim);
                                          p.replace(0, 8, total);
                                      }));
        expectRejected(path, "END claims " + std::to_string(claim) +
                                 " steps but the digest chain covers at "
                                 "most 4096");
    }
}

TEST(TraceVerify, OutOfRangeRegisterRejected)
{
    // Hand-built PROGZ plaintexts: `add r3, r0, r0; halt`, with one
    // register field set to 100. The emulator's register file and the
    // rename map have numArchRegs entries.
    TempDir dir("replay_register");
    replay::TraceMeta meta;
    meta.programName = "tiny";
    const std::string good = dir.file("tiny.tpt");
    replay::captureProgramTrace(tinyProgram(), meta, good);
    const std::string bytes = readBytes(good);

    for (int field = 0; field < 3; ++field) {
        uint8_t regs[3] = {3, 0, 0};    // rd, rs1, rs2
        regs[field] = 100;
        std::string plain;
        replay::putVarint(plain, 0);    // entry
        replay::putVarint(plain, 2);    // instructions
        plain.push_back(static_cast<char>(Opcode::ADD));
        plain.push_back(static_cast<char>(Opcode::HALT));
        for (uint8_t r : regs) {
            plain.push_back(static_cast<char>(r));
            plain.push_back('\0');
        }
        replay::putVarint(plain, 2);    // imm stream: two zeros
        plain += std::string(2, '\0');
        replay::putVarint(plain, 0);    // data words
        replay::putVarint(plain, 0);    // address stream
        const std::string path = dir.file("reg.tpt");
        writeBytes(path, resealEnd(rewriteChunk(
                             bytes, replay::ChunkType::PROGZ,
                             [&](std::string &p) {
                                 p = sealPlaintext(plain);
                             })));
        expectRejected(path, "register 100");
    }
}

TEST(TraceVerify, ImagesBeyondThePageBudgetRejected)
{
    // Hand-built PROGZ plaintexts: `halt` over a data image whose words
    // lie on distinct pages. 20,000 words 512 apart take a few bytes
    // each in the file but 80 MB of pages to load: verification stops
    // at the page budget. An image with more words than the budget's
    // pages can hold is refused before the decoder stores it.
    TempDir dir("replay_pages");
    replay::TraceMeta meta;
    meta.programName = "tiny";
    const std::string good = dir.file("tiny.tpt");
    replay::captureProgramTrace(tinyProgram(), meta, good);
    const std::string bytes = readBytes(good);

    const struct
    {
        uint64_t words;
        Addr stride;
        const char *needle;
    } cases[] = {
        {20000, SparseMemory::pageWords,
         "data memory exceeds its page budget of 4096 pages (16 MiB)"},
        {SparseMemory::maxPages * SparseMemory::pageWords + 1, 1,
         "PROGZ data image of 2097153 words exceeds the data-memory page "
         "budget"},
    };
    for (const auto &c : cases) {
        std::string plain;
        replay::putVarint(plain, 0);    // entry
        replay::putVarint(plain, 1);    // instructions
        plain.push_back(static_cast<char>(Opcode::HALT));
        plain += std::string(3, '\0');  // rd, rs1, rs2
        replay::putVarint(plain, 1);    // imm stream: one zero
        plain.push_back('\0');
        replay::putVarint(plain, c.words);
        std::string addrs;
        for (uint64_t i = 0; i < c.words; ++i)
            replay::putVarint(addrs, c.stride);
        replay::putVarint(plain, addrs.size());
        plain += addrs;
        for (uint64_t i = 0; i < c.words; ++i)
            replay::putSvarint(plain, 1);
        const std::string path = dir.file("pages.tpt");
        writeBytes(path, resealEnd(rewriteChunk(
                             bytes, replay::ChunkType::PROGZ,
                             [&](std::string &p) {
                                 p = sealPlaintext(plain);
                             })));
        expectRejected(path, c.needle);
    }
}

TEST(TraceVerify, CodeBeyondTheBudgetRejected)
{
    // A hand-built PROGZ of 4M NOPs and a halt: LZ runs (the token
    // stream codec.hh describes) store it in a few dozen bytes, and it
    // would decode to 64 MiB of Instruction. The decoder refuses the
    // count before it stores any.
    TempDir dir("replay_code");
    replay::TraceMeta meta;
    meta.programName = "tiny";
    const std::string good = dir.file("tiny.tpt");
    replay::captureProgramTrace(tinyProgram(), meta, good);

    const uint64_t n = (uint64_t{4} << 20) + 1;
    std::string count;
    replay::putVarint(count, n);
    std::string plain = '\0' + count;  // entry 0, n instructions
    plain.append(n - 1, static_cast<char>(Opcode::NOP));
    plain.push_back(static_cast<char>(Opcode::HALT));
    plain.append(3 * n, '\0');          // rd, rs1, rs2
    plain += count;                     // imm stream: n zeros
    plain.append(n, '\0');
    plain.append(2, '\0');              // no data words, no addresses
    static_assert(static_cast<int>(Opcode::NOP) == 0, "runs of zeros");
    std::string tokens;
    auto literal = [&tokens](const std::string &bytes) {
        replay::putVarint(tokens, uint64_t{bytes.size()} << 1);
        tokens += bytes;
    };
    auto zeros = [&tokens](uint64_t len) {   // a distance-1 match
        replay::putVarint(tokens, (len - replay::lzMinMatch) << 1 | 1);
        replay::putVarint(tokens, 1);
    };
    literal('\0' + count + '\0');
    zeros(n - 2);
    literal(std::string("\1\0", 2));
    zeros(3 * n - 1);
    literal(count + '\0');
    zeros(n - 1);
    literal(std::string(2, '\0'));
    std::string payload;
    payload.push_back(static_cast<char>(replay::CodecId::LZ));
    replay::putVarint(payload, plain.size());
    replay::putU64(payload, replay::fnv1a(plain.data(), plain.size()));
    payload += tokens;
    EXPECT_LT(payload.size(), 64u);

    const std::string path = dir.file("nops.tpt");
    writeBytes(path, resealEnd(rewriteChunk(readBytes(good),
                                            replay::ChunkType::PROGZ,
                                            [&](std::string &p) {
                                                p = payload;
                                            })));
    expectRejected(path, "PROGZ program of 4194305 instructions exceeds "
                         "the code budget of 1048576 instructions");

    // Capture decodes what it encodes, so a program over the budget
    // fails there and leaves no file.
    Program big;
    big.name = "big";
    big.code.assign(replay::maxTraceCode, Instruction{});
    big.code.push_back({Opcode::HALT, 0, 0, 0, 0});
    const std::string big_path = dir.file("big.tpt");
    try {
        replay::captureProgramTrace(big, meta, big_path);
        ADD_FAILURE() << "captured a program over the code budget";
    } catch (const replay::TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("exceeds the code budget"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(fs::exists(big_path));
}

// ---------------------------------------------------------------------
// TraceStore: capture-once, parse-once, recapture-on-corruption, kill
// atomicity.
// ---------------------------------------------------------------------

namespace
{

/** Entries phase name gained in PhaseTimers::global() since before. */
uint64_t
phaseCount(const std::vector<PhaseStat> &before, const std::string &name)
{
    for (const PhaseStat &p :
         PhaseTimers::diff(PhaseTimers::global().snapshot(), before)) {
        if (p.name == name)
            return p.count;
    }
    return 0;
}

} // anonymous namespace

TEST(TraceStoreTest, CaptureIsNotParsedThenDropParsesOnce)
{
    TempDir dir("store_phases");
    replay::TraceStore store(dir.path());
    replay::TraceStore::dropCache();

    auto before = PhaseTimers::global().snapshot();
    auto fresh = store.ensure("li", 1, 1.0, 20000);
    EXPECT_TRUE(fresh.captured);
    EXPECT_EQ(phaseCount(before, "capture"), 1u);
    EXPECT_EQ(phaseCount(before, "parse"), 0u);

    // Served from the cache: neither phase runs.
    before = PhaseTimers::global().snapshot();
    EXPECT_EQ(store.ensure("li", 1, 1.0, 20000).reader, fresh.reader);
    EXPECT_EQ(phaseCount(before, "capture"), 0u);
    EXPECT_EQ(phaseCount(before, "parse"), 0u);

    replay::TraceStore::dropCache();
    before = PhaseTimers::global().snapshot();
    auto reread = store.ensure("li", 1, 1.0, 20000);
    EXPECT_FALSE(reread.captured);
    EXPECT_EQ(phaseCount(before, "capture"), 0u);
    EXPECT_EQ(phaseCount(before, "parse"), 1u);
    expectSameTrace(*fresh.reader, *reread.reader, "li");
    replay::TraceStore::dropCache();
}

TEST(TraceStoreTest, RacingEnsuresShareOneParse)
{
    // Four threads released together miss the cache on one trace on
    // disk: one of them parses it, and the others wait for that parse.
    TempDir dir("store_race");
    replay::TraceStore store(dir.path());
    store.ensure("go", 1, 1.0, 20000);
    replay::TraceStore::dropCache();

    constexpr int threads = 4;
    std::atomic<int> waiting{threads};
    std::vector<replay::TraceStore::EnsureResult> got(threads);
    const auto before = PhaseTimers::global().snapshot();
    {
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&, t]() {
                waiting.fetch_sub(1);
                while (waiting.load() > 0)
                    std::this_thread::yield();
                got[t] = store.ensure("go", 1, 1.0, 20000);
            });
        }
        for (auto &th : pool)
            th.join();
    }
    EXPECT_EQ(phaseCount(before, "parse"), 1u);
    EXPECT_EQ(phaseCount(before, "capture"), 0u);
    for (const auto &r : got) {
        ASSERT_TRUE(r.reader);
        EXPECT_FALSE(r.captured);
        EXPECT_EQ(r.reader, got[0].reader);
    }
    replay::TraceStore::dropCache();
}

TEST(TraceStoreTest, CaptureOnceThenReplayFromDisk)
{
    TempDir dir("store_once");
    replay::TraceStore store(dir.path());

    auto first = store.ensure("li", 1, 0.25, 4000);
    EXPECT_TRUE(first.captured);
    const std::string path = store.tracePath("li", 1, 0.25, 4000);
    EXPECT_TRUE(fs::exists(path));
    const std::string bytes = readBytes(path);

    // Second ensure reuses the file (cache dropped to force a re-read
    // from disk rather than the in-process parse cache).
    replay::TraceStore::dropCache();
    auto second = store.ensure("li", 1, 0.25, 4000);
    EXPECT_FALSE(second.captured);
    EXPECT_EQ(readBytes(path), bytes);

    // Different identity -> different file.
    auto other = store.ensure("li", 2, 0.25, 4000);
    EXPECT_TRUE(other.captured);
    EXPECT_NE(store.tracePath("li", 2, 0.25, 4000), path);
}

TEST(TraceStoreTest, CorruptTraceIsRecaptured)
{
    TempDir dir("store_recapture");
    replay::TraceStore store(dir.path());
    store.ensure("go", 1, 0.25, 3000);
    const std::string path = store.tracePath("go", 1, 0.25, 3000);

    // Chop the tail off: END chunk gone, verification must reject it
    // and ensure() must record a fresh valid trace.
    const std::string bytes = readBytes(path);
    writeBytes(path, bytes.substr(0, bytes.size() / 2));
    std::string why;
    EXPECT_FALSE(
        replay::TraceStore::validFor(path, "go", 1, 0.25, 3000, &why));

    replay::TraceStore::dropCache();
    auto again = store.ensure("go", 1, 0.25, 3000);
    EXPECT_TRUE(again.captured);
    EXPECT_TRUE(
        replay::TraceStore::validFor(path, "go", 1, 0.25, 3000, &why))
        << why;
}

TEST(TraceStoreTest, AbandonedWriteLeavesNothingBehind)
{
    // The one point where a capture has bytes on disk before it
    // finishes: the temp file, when the rename onto the final path
    // fails (here the path is a directory). The capture throws and
    // removes its temp file.
    TempDir dir("writer_abandon");
    const std::string path = dir.file("taken.tpt");
    fs::create_directories(path);
    replay::TraceMeta meta;
    meta.workload = "tiny";
    EXPECT_THROW(replay::captureProgramTrace(tinyProgram(), meta, path),
                 replay::TraceError);
    EXPECT_TRUE(fs::is_directory(path));
    EXPECT_TRUE(fs::is_empty(path));
    size_t entries = 0;
    for (const auto &e : fs::directory_iterator(dir.path())) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

TEST(TraceStoreTest, ExceptionMidCaptureLeavesNothingBehind)
{
    // A store loop that walks one page further each iteration throws
    // MemoryBudgetError some 12,000 steps into the capture's emulation:
    // the capture fails with a TraceError naming the budget and leaves
    // no file, staged or final.
    TempDir dir("writer_throw");
    const std::string path = dir.file("thrown.tpt");
    ProgramBuilder b("pages");
    const auto top = b.newLabel();
    b.bind(top);
    b.addi(3, 3, static_cast<int64_t>(SparseMemory::pageWords));
    b.st(3, 3, 0);
    b.jmp(top);
    replay::TraceMeta meta;
    meta.programName = "pages";
    try {
        replay::captureProgramTrace(b.finish(), meta, path);
        ADD_FAILURE() << "capture ran past the page budget";
    } catch (const replay::TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("page budget"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::is_empty(dir.path()));
}

TEST(TraceStoreTest, CachePinsLiveReadersAcrossEviction)
{
    // The parsed-trace cache must never evict a reader a live replay
    // still holds: under parallel replay that would force concurrent
    // points onto re-parses (and re-decompression) of the same file.
    TempDir dir("store_pin");
    replay::TraceStore store(dir.path());
    replay::TraceStore::dropCache();
    replay::TraceStore::setCacheCapacityForTest(2);

    auto held = store.ensure("li", 1, 0.1, 400);
    const std::string held_path = store.tracePath("li", 1, 0.1, 400);

    // Push more distinct traces than the bound through the cache while
    // the first reader stays referenced (as a ReplaySource would during
    // a simulation).
    for (uint64_t seed = 2; seed <= 5; ++seed)
        store.ensure("li", seed, 0.1, 400);

    // The pinned trace survived the insertion-order eviction...
    EXPECT_TRUE(replay::TraceStore::isCachedForTest(held_path));
    auto again = store.ensure("li", 1, 0.1, 400);
    EXPECT_FALSE(again.captured);
    EXPECT_EQ(again.reader.get(), held.reader.get());

    // ...while unpinned older entries were evicted in its stead.
    EXPECT_FALSE(replay::TraceStore::isCachedForTest(
        store.tracePath("li", 2, 0.1, 400)));

    replay::TraceStore::setCacheCapacityForTest(0);
    replay::TraceStore::dropCache();
}

TEST(TraceStoreTest, EngineReplaysMoreTracesThanCacheBound)
{
    // Regression for the use-after-evict hazard: engine threads
    // replaying more distinct traces than the cache bound must stay
    // correct (each point's stats bit-identical to live emulation)
    // while readers churn through the bounded cache.
    TempDir dir("store_churn");
    replay::TraceStore::dropCache();
    replay::TraceStore::setCacheCapacityForTest(2);

    std::vector<harness::SweepPoint> points;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        harness::SweepPoint p;
        p.workload = "li";
        p.model = "base";
        p.seed = seed;
        p.scale = 0.1;
        p.maxInsts = 1500;
        p.index = points.size();
        points.push_back(p);
    }

    harness::SweepEngine::Options opts;
    opts.threads = 3;
    auto live = harness::SweepEngine(opts).run(points);

    for (auto &p : points)
        p.traceDir = dir.path();
    auto replayed = harness::SweepEngine(opts).run(points);

    ASSERT_EQ(live.size(), replayed.size());
    for (size_t i = 0; i < live.size(); ++i) {
        ASSERT_TRUE(live[i].ok) << live[i].error;
        ASSERT_TRUE(replayed[i].ok) << replayed[i].error;
        EXPECT_EQ(harness::statsToDict(live[i].stats),
                  harness::statsToDict(replayed[i].stats))
            << "seed " << points[i].seed;
    }

    replay::TraceStore::setCacheCapacityForTest(0);
    replay::TraceStore::dropCache();
}

TEST(TraceStoreTest, KilledCaptureLeavesNoTraceFile)
{
    TempDir dir("store_kill");
    const std::string path = dir.file("killed.tpt");

    int ready[2];
    ASSERT_EQ(pipe(ready), 0);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: capture a loop that never halts, under a cap it would
        // take hours to reach, as a SIGKILL'd sweep worker would be
        // mid-capture. Nothing is written before the emulation ends.
        close(ready[0]);
        Program spin;
        spin.name = "spin";
        spin.code.push_back({Opcode::JMP, 0, 0, 0, 0});
        replay::TraceMeta meta;
        meta.programName = spin.name;
        meta.captureCap = uint64_t{1} << 40;
        const char go = 1;
        if (write(ready[1], &go, 1) != 1)
            _exit(1);
        replay::captureProgramTrace(spin, meta, path);
        _exit(0);   // not reached
    }
    // Kill and reap the child before any assertion can return.
    close(ready[1]);
    char go = 0;
    const bool started = read(ready[0], &go, 1) == 1;
    close(ready[0]);
    usleep(100 * 1000);     // well into the emulation
    kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(started);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // No file at the final path, and no temp file either.
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::is_empty(dir.path()));

    // A fresh capture of an identity in the same directory succeeds.
    replay::TraceStore store(dir.path());
    auto ensured = store.ensure("compress", 1, 0.25, 2000);
    EXPECT_TRUE(ensured.captured);
    std::string why;
    EXPECT_TRUE(replay::TraceStore::validFor(
        store.tracePath("compress", 1, 0.25, 2000), "compress", 1, 0.25,
        2000, &why))
        << why;
}

// ---------------------------------------------------------------------
// Golden-statistics helpers.
// ---------------------------------------------------------------------

TEST(GoldenStats, FileNameSanitized)
{
    harness::SweepPoint p;
    p.workload = "compress";
    p.model = "FG+MLB-RET";
    EXPECT_EQ(harness::goldenFileName(p), "compress__FG_MLB-RET.json");
    p.model = "base(fg,ntb)";
    EXPECT_EQ(harness::goldenFileName(p), "compress__base_fg_ntb_.json");

    // Explicit-config points name by label, so distinct configs of one
    // workload stay distinct through labelOverride.
    p.useConfig = true;
    EXPECT_EQ(harness::goldenFileName(p), "compress__config_.json");
    p.labelOverride = "compress/bigPE";
    EXPECT_EQ(harness::goldenFileName(p), "compress_bigPE.json");
}

TEST(GoldenStats, DiffFindsDriftMissingAndExtra)
{
    StatDict expected;
    expected.set("cycles", 100);
    expected.set("retiredInsts", 400);
    expected.set("onlyInGolden", 7);

    StatDict actual;
    actual.set("cycles", 100);          // match
    actual.set("retiredInsts", 401);    // drift
    actual.set("onlyInRun", 3);         // extra

    auto drift = harness::diffStatDicts(expected, actual);
    ASSERT_EQ(drift.size(), 3u);
    EXPECT_EQ(drift[0].key, "retiredInsts");
    EXPECT_EQ(drift[0].expected, 400);
    EXPECT_EQ(drift[0].actual, 401);
    EXPECT_EQ(drift[1].key, "onlyInGolden");
    EXPECT_FALSE(drift[1].inActual);
    EXPECT_EQ(drift[2].key, "onlyInRun");
    EXPECT_FALSE(drift[2].inExpected);
    EXPECT_EQ(harness::describeDrift(drift[0]),
              "retiredInsts: golden 400, got 401");
    EXPECT_EQ(harness::describeDrift(drift[1]),
              "onlyInGolden: golden 7, got <absent>");
    EXPECT_EQ(harness::describeDrift(drift[2]),
              "onlyInRun: golden <absent>, got 3");

    EXPECT_TRUE(harness::diffStatDicts(expected, expected).empty());
}

TEST(GoldenStats, SnapshotRoundTrip)
{
    TempDir dir("golden_rt");
    harness::SweepPoint p;
    p.workload = "jpeg";
    p.model = "base";
    p.seed = 1;
    p.scale = 0.25;
    p.maxInsts = 5000;
    auto r = harness::SweepEngine::runPoint(p);
    ASSERT_TRUE(r.ok) << r.error;

    const StatDict stats = harness::statsToDict(r.stats);
    const std::string path = dir.file(harness::goldenFileName(p));
    harness::writeGoldenFile(path, stats);
    EXPECT_TRUE(harness::diffStatDicts(harness::readGoldenFile(path),
                                       stats)
                    .empty());

    EXPECT_THROW(harness::readGoldenFile(dir.file("missing.json")),
                 std::runtime_error);
}

} // namespace tproc
