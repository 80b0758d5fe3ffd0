/**
 * @file
 * Trace capture/replay tests: the binary container round trip, the
 * capture-once/replay-many store, the differential contract (replaying
 * a recorded trace through the full timing processor is bit-identical
 * to live emulation for every seed workload), negative cases for
 * truncated and corrupted files, capture atomicity under SIGKILL, and
 * the golden-statistics helpers.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/runner.hh"
#include "emulator/emulator.hh"
#include "harness/golden.hh"
#include "harness/sweep.hh"
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
// The block codec (compressed v2 chunks ride on it).
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
    EXPECT_TRUE(cap.halted);
    EXPECT_EQ(cap.steps, 6u);

    replay::TraceReader reader(path);
    EXPECT_EQ(reader.info().version, replay::traceVersion2);
    EXPECT_EQ(reader.meta().workload, "tiny");
    EXPECT_TRUE(reader.info().cleanHalt);
    EXPECT_EQ(reader.info().totalSteps, 6u);
    EXPECT_EQ(reader.program().code.size(), prog.code.size());

    // The decoded stream must equal a fresh emulation step for step.
    Emulator emu(prog);
    replay::StepCursor cursor(reader);
    StepResult got;
    while (cursor.next(got)) {
        const StepResult want = emu.step();
        EXPECT_EQ(want, got) << "step " << cursor.stepsRead();
    }
    EXPECT_TRUE(emu.halted());
    EXPECT_EQ(cursor.stepsRead(), 6u);
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
    EXPECT_EQ(res.steps, cap);

    replay::TraceReader reader(path);
    const Program &p = reader.program();
    EXPECT_EQ(p.name, w.program.name);
    EXPECT_EQ(p.entry, w.program.entry);
    ASSERT_EQ(p.code.size(), w.program.code.size());
    for (size_t i = 0; i < p.code.size(); ++i)
        EXPECT_EQ(p.code[i], w.program.code[i]) << "inst " << i;
    EXPECT_EQ(p.dataInit, w.program.dataInit);

    Emulator emu(w.program);
    replay::StepCursor cursor(reader);
    StepResult got;
    uint64_t n = 0;
    while (cursor.next(got)) {
        EXPECT_EQ(emu.step(), got) << "step " << n;
        ++n;
    }
    EXPECT_EQ(n, cap);
}

TEST(TraceRoundTrip, V1AndV2CarryIdenticalStreams)
{
    // The compressed (v2, default) and raw (v1) containers must hold
    // the same program and the same step stream; v2 must be markedly
    // smaller (the CI golden job gates the checked-in traces at 3x).
    TempDir dir("replay_versions");
    const std::string v1 = dir.file("v1.tpt");
    const std::string v2 = dir.file("v2.tpt");
    const Workload w = makeWorkload("compress", 1, 1.0);
    replay::TraceMeta meta;
    meta.workload = "compress";
    meta.seed = 1;
    meta.captureCap = 20000;
    meta.programName = w.program.name;
    replay::captureProgramTrace(w.program, meta, v1,
                                /*compress=*/false);
    replay::captureProgramTrace(w.program, meta, v2);

    replay::TraceReader r1(v1);
    replay::TraceReader r2(v2);
    EXPECT_EQ(r1.info().version, replay::traceVersion1);
    EXPECT_EQ(r2.info().version, replay::traceVersion2);
    EXPECT_GE(r1.info().fileBytes, 3 * r2.info().fileBytes);

    EXPECT_EQ(r1.program().code.size(), r2.program().code.size());
    EXPECT_EQ(r1.program().dataInit, r2.program().dataInit);
    EXPECT_EQ(r1.program().entry, r2.program().entry);

    replay::StepCursor c1(r1), c2(r2);
    StepResult s1, s2;
    while (c1.next(s1)) {
        ASSERT_TRUE(c2.next(s2));
        ASSERT_EQ(s1, s2) << "step " << c1.stepsRead();
    }
    EXPECT_FALSE(c2.next(s2));
    EXPECT_EQ(c1.stepsRead(), 20000u);

    // Recompressing the v1 file (reader -> compressed writer, the
    // `tproc-trace compress` path) reproduces the direct v2 capture
    // byte for byte: the transforms are canonical and the stream
    // digest is defined over the v1 record bytes in both versions.
    const std::string re = dir.file("recompressed.tpt");
    {
        replay::TraceWriter writer(re, r1.meta(), r1.program());
        replay::StepCursor cur(r1);
        StepResult s;
        while (cur.next(s))
            writer.append(s);
        writer.finalize();
    }
    EXPECT_EQ(readBytes(re), readBytes(v2));
}

TEST(TraceRoundTrip, CaptureCapSaturates)
{
    EXPECT_EQ(replay::captureCapFor(1000),
              1000 + replay::captureSlack);
    EXPECT_EQ(replay::captureCapFor(UINT64_MAX), UINT64_MAX);
    EXPECT_EQ(replay::captureCapFor(UINT64_MAX - 1), UINT64_MAX);
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
makeValidTrace(const TempDir &dir, const std::string &name,
               bool compress = true)
{
    const std::string path = dir.file(name);
    const Workload w = makeWorkload("compress", 1, 0.25);
    replay::TraceMeta meta;
    meta.workload = "compress";
    meta.seed = 1;
    meta.scale = 0.25;
    meta.captureCap = 2000;
    meta.programName = w.program.name;
    replay::captureProgramTrace(w.program, meta, path, compress);
    return path;
}

} // anonymous namespace

TEST(TraceCodec, ChunkStatsReportCompression)
{
    TempDir dir("replay_chunkstats");
    const std::string path = makeValidTrace(dir, "stats.tpt");
    replay::TraceReader reader(path);
    const auto &stats = reader.info().chunkStats;
    ASSERT_FALSE(stats.empty());
    EXPECT_EQ(stats[0].type, replay::ChunkType::PROGZ);
    size_t stored = 0, plain = 0;
    for (const auto &c : stats) {
        EXPECT_TRUE(c.type == replay::ChunkType::PROGZ ||
                    c.type == replay::ChunkType::STPZ);
        stored += c.storedBytes;
        plain += c.plainBytes;
    }
    EXPECT_LT(stored, plain);   // the golden workloads all compress
}

TEST(ReplayNegative, TruncatedFileRejected)
{
    TempDir dir("replay_trunc");
    for (bool compress : {true, false}) {
        const std::string good =
            makeValidTrace(dir, compress ? "good2.tpt" : "good1.tpt",
                           compress);
        const std::string bytes = readBytes(good);
        ASSERT_GT(bytes.size(), 64u);

        for (size_t keep : {bytes.size() - 1, bytes.size() / 2,
                            size_t{20}, size_t{4}}) {
            const std::string path = dir.file("trunc.tpt");
            writeBytes(path, bytes.substr(0, keep));
            EXPECT_THROW(replay::TraceReader reader(path),
                         replay::TraceError)
                << "kept " << keep << " bytes (compress=" << compress
                << ")";
            std::string why;
            EXPECT_FALSE(replay::TraceStore::validFor(
                path, "compress", 1, 0.25, 1000, &why));
            EXPECT_FALSE(why.empty());
        }
    }
}

TEST(ReplayNegative, CorruptedBytesRejected)
{
    TempDir dir("replay_corrupt");
    for (bool compress : {true, false}) {
        const std::string good =
            makeValidTrace(dir, compress ? "good2.tpt" : "good1.tpt",
                           compress);
        const std::string bytes = readBytes(good);

        // Flip one byte in several places: magic, version, chunk
        // interior (for v2, inside the compressed payloads).
        for (size_t at : {size_t{0}, size_t{5}, bytes.size() / 3,
                          2 * bytes.size() / 3, bytes.size() - 3}) {
            std::string bad = bytes;
            bad[at] = static_cast<char>(bad[at] ^ 0x40);
            const std::string path = dir.file("bad.tpt");
            writeBytes(path, bad);
            EXPECT_THROW(replay::TraceReader reader(path),
                         replay::TraceError)
                << "flipped byte " << at << " (compress=" << compress
                << ")";
        }
    }
}

namespace
{

/**
 * Rewrite the first chunk of the given type with mutate(payload),
 * recomputing the outer chunk digest — so the reader gets past the
 * container checksum and the codec-envelope validation itself is what
 * rejects the file.
 */
std::string
rewriteChunk(const std::string &bytes, replay::ChunkType type,
             const std::function<void(std::string &)> &mutate)
{
    size_t pos = 8;
    while (pos + 9 + 8 <= bytes.size()) {
        replay::ByteCursor hdr(bytes.data() + pos, 9);
        const uint8_t t = hdr.u8();
        const uint32_t len = hdr.u32();
        const uint32_t records = hdr.u32();
        if (static_cast<replay::ChunkType>(t) == type) {
            std::string payload = bytes.substr(pos + 9, len);
            mutate(payload);
            std::string header;
            header.push_back(static_cast<char>(t));
            replay::putU32(header,
                           static_cast<uint32_t>(payload.size()));
            replay::putU32(header, records);
            uint64_t digest =
                replay::fnv1a(header.data(), header.size());
            digest = replay::fnv1a(payload.data(), payload.size(),
                                   digest);
            std::string out = bytes.substr(0, pos) + header + payload;
            replay::putU64(out, digest);
            out += bytes.substr(pos + 9 + len + 8);
            return out;
        }
        pos += 9 + static_cast<size_t>(len) + 8;
    }
    ADD_FAILURE() << "chunk type " << static_cast<int>(type)
                  << " not found";
    return bytes;
}

} // anonymous namespace

TEST(ReplayNegative, CompressedChunkCorruptionsRejectedByName)
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

    for (replay::ChunkType type : {replay::ChunkType::STPZ,
                                   replay::ChunkType::PROGZ}) {
        const std::string label =
            type == replay::ChunkType::STPZ ? "STPZ" : "PROGZ";
        // Unknown codec id (first byte of the codec envelope).
        expectNamedError(
            rewriteChunk(bytes, type,
                         [](std::string &p) {
                             p[0] = static_cast<char>(99);
                         }),
            "unknown codec id", label + "/codec");
        // Plaintext checksum mismatch: decode succeeds but the stored
        // plaintext FNV (after codec byte + plainLen varint) is wrong.
        expectNamedError(
            rewriteChunk(bytes, type,
                         [](std::string &p) {
                             size_t i = 1;
                             while (static_cast<uint8_t>(p[i]) & 0x80)
                                 ++i;
                             ++i;
                             p[i] = static_cast<char>(p[i] ^ 0x40);
                         }),
            "plaintext checksum mismatch", label + "/fnv");
        // Truncated compressed payload (outer digest recomputed, so
        // only the codec's own bounds checking can catch it).
        expectNamedError(
            rewriteChunk(bytes, type,
                         [](std::string &p) {
                             p.resize(p.size() - 8);
                         }),
            "truncated", label + "/trunc");
    }
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

/** The plaintext inside a v2 chunk's codec envelope. */
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

/** A v2 codec envelope storing plain verbatim (the RAW codec), with
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

TEST(TraceRoundTrip, DecodersNormaliseOutOfOrderImages)
{
    // Hand-built PROG chunks whose image a map would have read with
    // "last write wins": the decoders must produce the sorted, unique
    // image that rule implies.
    TempDir dir("replay_image");
    const Program tiny = tinyProgram();
    ASSERT_TRUE(tiny.dataInit.empty());
    replay::TraceMeta meta;
    meta.programName = tiny.name;
    const std::string v1 = dir.file("v1.tpt");
    const std::string v2 = dir.file("v2.tpt");
    replay::captureProgramTrace(tiny, meta, v1, /*compress=*/false);
    replay::captureProgramTrace(tiny, meta, v2);

    // v1: an empty image is the payload's last byte (count 0); replace
    // it with unsorted and repeated addresses.
    writeBytes(v1, rewriteChunk(readBytes(v1), replay::ChunkType::PROG,
                                [](std::string &p) {
        ASSERT_EQ(p.back(), '\0');
        p.pop_back();
        const DataImage writes = {
            {30, 3}, {10, 1}, {20, 2}, {10, 11}, {30, -3}};
        replay::putVarint(p, writes.size());
        for (const auto &[a, v] : writes) {
            replay::putVarint(p, a);
            replay::putSvarint(p, v);
        }
    }));
    replay::TraceReader r1(v1);
    EXPECT_EQ(r1.program().dataInit,
              (DataImage{{10, 11}, {20, 2}, {30, -3}}));
    EXPECT_EQ(r1.info().dataInitSize, 3u);

    // v2: an empty image is the plaintext's last two bytes (count 0,
    // address-stream length 0); replace them with address deltas
    // 5, 0, 3, 0 (addresses 5, 5, 8, 8), then reseal the envelope.
    writeBytes(v2, rewriteChunk(readBytes(v2), replay::ChunkType::PROGZ,
                                [](std::string &p) {
        std::string plain = openPlaintext(p);
        ASSERT_EQ(plain.substr(plain.size() - 2), std::string(2, '\0'));
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
    }));
    replay::TraceReader r2(v2);
    EXPECT_EQ(r2.program().dataInit, (DataImage{{5, 2}, {8, -4}}));
    EXPECT_EQ(r2.info().dataInitSize, 2u);
}

TEST(TraceRoundTrip, EveryImageSurvivesV1AndV2)
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
        for (bool compress : {false, true}) {
            const std::string path = dir.file("image.tpt");
            replay::captureProgramTrace(w.program, meta, path, compress);
            replay::TraceReader reader(path);
            EXPECT_EQ(reader.program().dataInit, w.program.dataInit)
                << name << (compress ? " v2" : " v1");
        }
    }
}

TEST(TraceFuzz, ResealedMetaAndProgMutantsParseOrFailCleanly)
{
    // The outer chunk checksum rejects almost every stray byte, so each
    // mutant is resealed (and, in v2, so is the plaintext digest) to
    // reach the META and PROG decoders themselves. Nothing binds the
    // program to the step stream, so a parsed mutant is also replayed.
    TempDir dir("replay_fuzz");
    Rng rng(20261017);
    const Workload w = makeWorkload("li", 1, 0.25);
    replay::TraceMeta meta;
    meta.workload = "li";
    meta.scale = 0.25;
    meta.captureCap = 2500;
    meta.programName = w.program.name;
    const ProcessorConfig base = ProcessorConfig::forModel("base");

    for (bool compress : {false, true}) {
        const std::string good = dir.file("good.tpt");
        replay::captureProgramTrace(w.program, meta, good, compress);
        const std::string bytes = readBytes(good);
        const replay::ChunkType prog = compress ? replay::ChunkType::PROGZ
                                                : replay::ChunkType::PROG;
        // v2 PROG mutants edit the PROGZ plaintext and reseal it; open
        // the envelope once (this rewrite only reads the payload).
        std::string prog_plain;
        if (compress) {
            rewriteChunk(bytes, prog, [&](std::string &p) {
                prog_plain = openPlaintext(p);
            });
        }
        int parsed = 0, clean = 0;
        for (int i = 0; i < 300; ++i) {
            const bool in_meta = i % 2 == 0;
            const std::string mutant = rewriteChunk(
                bytes, in_meta ? replay::ChunkType::META : prog,
                [&](std::string &p) {
                    if (compress && !in_meta) {
                        std::string plain = prog_plain;
                        mutateBytes(plain, rng);
                        p = sealPlaintext(plain);
                    } else {
                        mutateBytes(p, rng);
                    }
                });
            const std::string path = dir.file("mutant.tpt");
            writeBytes(path, mutant);
            std::shared_ptr<const replay::TraceReader> reader;
            try {
                reader = std::make_shared<const replay::TraceReader>(path);
            } catch (const replay::TraceError &) {
                continue;
            }
            ++parsed;
            ASSERT_TRUE(sortedUnique(reader->program().dataInit))
                << "mutant " << i << (compress ? " v2" : " v1");
            ScopedErrorCapture capture;
            try {
                runConfig(reader->program(), base, 2000,
                          std::make_unique<replay::ReplaySource>(reader));
                ++clean;
            } catch (const SimError &) {
            } catch (const replay::TraceError &) {
            }
        }
        // Resealing must reach the decoders: some mutants parse, and
        // the META-only edits among them replay cleanly.
        EXPECT_GT(parsed, 0) << (compress ? "v2" : "v1");
        EXPECT_GT(clean, 0) << (compress ? "v2" : "v1");
    }
}

// ---------------------------------------------------------------------
// TraceStore: capture-once, recapture-on-corruption, kill atomicity.
// ---------------------------------------------------------------------

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

TEST(TraceStoreTest, AbandonedWriterLeavesNothingBehind)
{
    TempDir dir("writer_abandon");
    const std::string path = dir.file("abandoned.tpt");
    const Program prog = tinyProgram();
    {
        replay::TraceMeta meta;
        meta.workload = "tiny";
        replay::TraceWriter writer(path, meta, prog);
        Emulator emu(prog);
        writer.append(emu.step());
        writer.append(emu.step());
        // No finalize: destructor must clean up the temp file.
    }
    EXPECT_FALSE(fs::exists(path));
    size_t entries = 0;
    for (const auto &e : fs::directory_iterator(dir.path())) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 0u);
}

TEST(TraceStoreTest, ExceptionBeforeFinalizeLeavesNothingBehind)
{
    // The destructor path under stack unwinding: an exception thrown
    // anywhere between TraceWriter construction and finalize() (e.g.
    // an emulator fault inside captureWorkloadTrace) must remove the
    // .tmp.<pid>.<seq> staging file, in both container versions.
    TempDir dir("writer_throw");
    for (bool compress : {true, false}) {
        const std::string path = dir.file("thrown.tpt");
        const Program prog = tinyProgram();
        bool caught = false;
        try {
            replay::TraceMeta meta;
            meta.workload = "tiny";
            replay::TraceWriter writer(path, meta, prog, compress);
            Emulator emu(prog);
            writer.append(emu.step());
            writer.append(emu.step());
            throw std::runtime_error("capture failed mid-stream");
        } catch (const std::runtime_error &) {
            caught = true;
        }
        EXPECT_TRUE(caught);
        EXPECT_FALSE(fs::exists(path));
        size_t entries = 0;
        for (const auto &e : fs::directory_iterator(dir.path())) {
            (void)e;
            ++entries;
        }
        EXPECT_EQ(entries, 0u) << "compress=" << compress;
    }
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
    // the first reader stays referenced (as a StepCursor-bearing
    // ReplaySource would during a simulation).
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

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: start a capture and die mid-stream, as a SIGKILL'd
        // sweep worker would. Everything so far sits in a temp file;
        // the final path must never appear.
        const Workload w = makeWorkload("compress", 1, 0.25);
        replay::TraceMeta meta;
        meta.workload = "compress";
        meta.captureCap = 100000;
        replay::TraceWriter writer(path, meta, w.program);
        Emulator emu(w.program);
        uint64_t n = 0;
        emu.setStepObserver([&](const StepResult &s) {
            writer.append(s);
            if (++n == 5000)
                raise(SIGKILL);
        });
        emu.run(meta.captureCap);
        _exit(0);   // not reached
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // Either no file at the final path (the rename never ran)...
    EXPECT_FALSE(fs::exists(path));

    // ...and whatever temp debris the kill left behind neither blocks
    // nor pollutes a fresh capture of the same identity.
    replay::TraceStore store(dir.path());
    auto ensured = store.ensure("compress", 1, 0.25, 2000);
    EXPECT_TRUE(ensured.captured);
    std::string why;
    EXPECT_TRUE(replay::TraceStore::validFor(
        store.tracePath("compress", 1, 0.25, 2000), "compress", 1, 0.25,
        2000, &why))
        << why;
}

TEST(TraceStoreTest, ResumedSweepPointRecoversFromKillDebris)
{
    // The harness resume x capture interaction: a sweep worker
    // SIGKILL'd mid-capture leaves, at worst, a stale writer temp file
    // and/or a truncated final file (e.g. hand-copied). A resumed run
    // of the same point must never replay short off either — it
    // recaptures and produces stats bit-identical to live emulation.
    TempDir dir("store_resume");
    harness::SweepPoint p;
    p.workload = "jpeg";
    p.model = "base";
    p.seed = 1;
    p.scale = 0.25;
    p.maxInsts = 5000;

    auto live = harness::SweepEngine::runPoint(p);
    ASSERT_TRUE(live.ok) << live.error;

    replay::TraceStore store(dir.path());
    const std::string path = store.tracePath("jpeg", 1, 0.25, 5000);
    writeBytes(path + ".tmp.12345.0", "half-written capture debris");
    writeBytes(path, std::string(replay::traceMagic,
                                 sizeof(replay::traceMagic)) +
                         "torn mid-write");
    replay::TraceStore::dropCache();

    p.traceDir = dir.path();
    auto resumed = harness::SweepEngine::runPoint(p);
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_EQ(harness::statsToDict(live.stats),
              harness::statsToDict(resumed.stats));
    std::string why;
    EXPECT_TRUE(replay::TraceStore::validFor(path, "jpeg", 1, 0.25,
                                             5000, &why))
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
