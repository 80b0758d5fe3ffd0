#include "replay/trace_file.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "replay/codec.hh"

namespace tproc::replay
{

namespace
{

std::string
uniqueTmpPath(const std::string &final_path)
{
    static std::atomic<unsigned> seq{0};
    return final_path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(seq.fetch_add(1));
}

uint64_t
doubleBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
bitsDouble(uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/**
 * Decoded PROGZ/STPZ plaintext may legitimately dwarf its compressed
 * bytes, but a corrupt or malicious file must not drive huge
 * allocations: the budget is enforced per chunk AND cumulatively
 * across the whole file, so a tiny crafted trace full of
 * RLE-amplified chunks cannot balloon stepData without bound. 256 MiB
 * covers step streams orders of magnitude past the current capture
 * caps (a 20k-instruction golden trace decodes to ~250 KiB).
 */
constexpr uint64_t maxPlainTraceBytes = uint64_t{1} << 28;

/** Upfront reserve cap for counts read from (possibly lying) chunk
 *  headers; vectors grow geometrically past it only as real decoded
 *  data materializes. */
constexpr uint64_t maxUpfrontReserve = uint64_t{1} << 20;

std::string
encodeMeta(const TraceMeta &meta)
{
    std::string p;
    putStr(p, meta.workload);
    putU64(p, meta.seed);
    putU64(p, doubleBits(meta.scale));
    putU64(p, meta.captureCap);
    putStr(p, meta.programName);
    return p;
}

std::string
encodeProgram(const Program &prog)
{
    std::string p;
    putVarint(p, prog.entry);
    putVarint(p, prog.code.size());
    for (const Instruction &inst : prog.code) {
        p.push_back(static_cast<char>(inst.op));
        p.push_back(static_cast<char>(inst.rd));
        p.push_back(static_cast<char>(inst.rs1));
        p.push_back(static_cast<char>(inst.rs2));
        putSvarint(p, inst.imm);
    }
    // The data image is already sorted by address, so identical
    // programs produce identical bytes.
    putVarint(p, prog.dataInit.size());
    for (const auto &[addr, value] : prog.dataInit) {
        putVarint(p, addr);
        putSvarint(p, value);
    }
    return p;
}

/** The v2 PROGZ plaintext (see trace_file.hh): per-field code planes,
 *  and the sorted data image dict-coded as address deltas + values. */
std::string
encodeProgramV2(const Program &prog)
{
    std::string p;
    putVarint(p, prog.entry);
    putVarint(p, prog.code.size());
    std::string rd, rs1, rs2, imms;
    for (const Instruction &inst : prog.code) {
        p.push_back(static_cast<char>(inst.op));
        rd.push_back(static_cast<char>(inst.rd));
        rs1.push_back(static_cast<char>(inst.rs1));
        rs2.push_back(static_cast<char>(inst.rs2));
        putSvarint(imms, inst.imm);
    }
    p += rd;
    p += rs1;
    p += rs2;
    putVarint(p, imms.size());
    p += imms;

    putVarint(p, prog.dataInit.size());
    std::string addrs, values;
    Addr prev = 0;
    for (const auto &[addr, value] : prog.dataInit) {
        putVarint(addrs, addr - prev);
        prev = addr;
        putSvarint(values, value);
    }
    putVarint(p, addrs.size());
    p += addrs;
    p += values;
    return p;
}

/** Append the raw bytes of one varint from c to out, unparsed. */
void
copyVarint(ByteCursor &c, std::string &out)
{
    for (int i = 0; i < 10; ++i) {
        const uint8_t b = c.u8();
        out.push_back(static_cast<char>(b));
        if (!(b & 0x80))
            return;
    }
    throw TraceError("varint longer than 64 bits");
}

/** Interleaved v1 step records -> the STPZ column plaintext. Pure
 *  byte regrouping: every varint is copied verbatim, never re-coded. */
std::string
stepColumnsFromInterleaved(const char *data, size_t n, uint32_t records)
{
    ByteCursor c(data, n);
    std::string flags, pcd, npc, dest, mema, memv;
    for (uint32_t i = 0; i < records; ++i) {
        const uint8_t f = c.u8();
        if (f & ~0x1fu)
            throw TraceError("invalid step flags");
        flags.push_back(static_cast<char>(f));
        copyVarint(c, pcd);
        if (!(f & 16))
            copyVarint(c, npc);
        if (f & 2)
            copyVarint(c, dest);
        if (f & 4) {
            copyVarint(c, mema);
            copyVarint(c, memv);
        }
    }
    if (!c.atEnd())
        throw TraceError("trailing bytes in step records");
    std::string out;
    out.reserve(n + 12);
    for (const std::string *s : {&flags, &pcd, &npc, &dest, &mema,
                                 &memv}) {
        putVarint(out, s->size());
        out.append(*s);
    }
    return out;
}

/** Inverse of stepColumnsFromInterleaved; byte-exact by construction,
 *  so the reconstructed records feed the END stream digest unchanged. */
std::string
stepInterleavedFromColumns(const char *data, size_t n, uint32_t records)
{
    ByteCursor c(data, n);
    ByteCursor streams[6] = {{nullptr, 0}, {nullptr, 0}, {nullptr, 0},
                             {nullptr, 0}, {nullptr, 0}, {nullptr, 0}};
    size_t flags_len = 0;
    for (int s = 0; s < 6; ++s) {
        const uint64_t len = c.varint();
        if (len > c.remaining())
            throw TraceError("step column stream exceeds chunk");
        if (s == 0)
            flags_len = static_cast<size_t>(len);
        streams[s] = ByteCursor(c.take(static_cast<size_t>(len)),
                                static_cast<size_t>(len));
    }
    if (!c.atEnd())
        throw TraceError("trailing bytes after step column streams");
    if (flags_len != records)
        throw TraceError("step flag column disagrees with record count");

    ByteCursor &fc = streams[0];
    std::string out;
    out.reserve(n);
    for (uint32_t i = 0; i < records; ++i) {
        const uint8_t f = fc.u8();
        if (f & ~0x1fu)
            throw TraceError("invalid step flags");
        out.push_back(static_cast<char>(f));
        copyVarint(streams[1], out);
        if (!(f & 16))
            copyVarint(streams[2], out);
        if (f & 2)
            copyVarint(streams[3], out);
        if (f & 4) {
            copyVarint(streams[4], out);
            copyVarint(streams[5], out);
        }
    }
    for (int s = 1; s < 6; ++s) {
        if (!streams[s].atEnd())
            throw TraceError("trailing bytes in step column stream");
    }
    return out;
}

/** The chunk digest covers the serialized header fields + payload. */
uint64_t
chunkDigest(ChunkType type, uint32_t payload_len, uint32_t records,
            const std::string &payload)
{
    std::string header;
    header.push_back(static_cast<char>(type));
    putU32(header, payload_len);
    putU32(header, records);
    uint64_t h = fnv1a(header.data(), header.size());
    return fnv1a(payload.data(), payload.size(), h);
}

} // anonymous namespace

// ---------------------------------------------------------------------
// TraceWriter.
// ---------------------------------------------------------------------

TraceWriter::TraceWriter(std::string path, const TraceMeta &meta,
                         const Program &prog, bool compress)
    : finalPath(std::move(path)), tmpPath(uniqueTmpPath(finalPath)),
      out(tmpPath, std::ios::binary | std::ios::trunc),
      compressed(compress)
{
    if (!out)
        throw TraceError("cannot create trace file " + tmpPath);

    std::string header(traceMagic, sizeof(traceMagic));
    putU32(header, compressed ? traceVersion2 : traceVersion1);
    out.write(header.data(), static_cast<std::streamsize>(header.size()));

    writeChunk(ChunkType::META, 0, encodeMeta(meta));
    if (compressed)
        writeCompressedChunk(ChunkType::PROGZ, 0, encodeProgramV2(prog));
    else
        writeChunk(ChunkType::PROG, 0, encodeProgram(prog));
}

TraceWriter::~TraceWriter()
{
    // A writer abandoned before finalize() — scope exit, an exception
    // anywhere between construction and finalize, a failed finalize —
    // must not leak its temp file; the final path was never touched.
    if (!finalized) {
        out.close();
        std::remove(tmpPath.c_str());
    }
}

void
TraceWriter::writeChunk(ChunkType type, uint32_t records,
                        const std::string &payload)
{
    const auto len = static_cast<uint32_t>(payload.size());
    std::string buf;
    buf.push_back(static_cast<char>(type));
    putU32(buf, len);
    putU32(buf, records);
    buf.append(payload);
    putU64(buf, chunkDigest(type, len, records, payload));
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void
TraceWriter::writeCompressedChunk(ChunkType type, uint32_t records,
                                  const std::string &plain)
{
    const CodecResult comp = codecCompress(plain);
    std::string payload;
    payload.push_back(static_cast<char>(comp.codec));
    putVarint(payload, plain.size());
    putU64(payload, fnv1a(plain.data(), plain.size()));
    payload.append(comp.bytes);
    writeChunk(type, records, payload);
}

void
TraceWriter::append(const StepResult &s)
{
    std::string &p = stepPayload;
    uint8_t flags = 0;
    if (s.taken)
        flags |= 1;
    if (s.hasDest)
        flags |= 2;
    if (s.isMem)
        flags |= 4;
    if (s.halted)
        flags |= 8;
    const bool sequential = s.nextPc == s.pc + 1;
    if (sequential)
        flags |= 16;
    p.push_back(static_cast<char>(flags));
    putSvarint(p, static_cast<int64_t>(s.pc - prevPc));
    if (!sequential)
        putSvarint(p, static_cast<int64_t>(s.nextPc - s.pc));
    if (s.hasDest)
        putSvarint(p, s.destValue);
    if (s.isMem) {
        putSvarint(p, static_cast<int64_t>(s.memAddr - prevMemAddr));
        putSvarint(p, s.memValue);
        prevMemAddr = s.memAddr;
    }
    prevPc = s.pc;
    if (s.halted)
        sawHalt = true;
    ++stepRecords;
    ++totalSteps;
    if (stepRecords >= stepsPerChunk)
        flushSteps();
}

void
TraceWriter::flushSteps()
{
    if (!stepRecords)
        return;
    // The stream digest always covers the interleaved v1 record bytes,
    // so recompressing a trace preserves its END digest bit for bit.
    streamFnv = fnv1a(stepPayload.data(), stepPayload.size(), streamFnv);
    if (compressed) {
        writeCompressedChunk(
            ChunkType::STPZ, stepRecords,
            stepColumnsFromInterleaved(stepPayload.data(),
                                       stepPayload.size(), stepRecords));
    } else {
        writeChunk(ChunkType::STEPS, stepRecords, stepPayload);
    }
    stepPayload.clear();
    stepRecords = 0;
}

void
TraceWriter::finalize()
{
    if (finalized)
        throw TraceError("trace writer finalized twice");
    flushSteps();

    std::string end;
    putU64(end, totalSteps);
    putU64(end, streamFnv);
    end.push_back(sawHalt ? 1 : 0);
    writeChunk(ChunkType::END, 0, end);

    out.flush();
    const bool ok = out.good();
    out.close();
    if (!ok) {
        std::remove(tmpPath.c_str());
        throw TraceError("I/O error writing trace " + tmpPath);
    }
    if (std::rename(tmpPath.c_str(), finalPath.c_str()) != 0) {
        std::remove(tmpPath.c_str());
        throw TraceError("cannot rename " + tmpPath + " to " + finalPath);
    }
    finalized = true;
}

// ---------------------------------------------------------------------
// TraceReader.
// ---------------------------------------------------------------------

TraceReader::TraceReader(const std::string &path)
{
    parseContainer(path);
}

void
TraceReader::decodeMeta(ByteCursor c)
{
    inf.meta.workload = c.str();
    inf.meta.seed = c.u64();
    inf.meta.scale = bitsDouble(c.u64());
    inf.meta.captureCap = c.u64();
    inf.meta.programName = c.str();
    if (!c.atEnd())
        throw TraceError("trailing bytes in META chunk");
}

void
TraceReader::decodeProgram(ByteCursor c)
{
    prog.entry = static_cast<Addr>(c.varint());
    prog.name = inf.meta.programName;
    const uint64_t code_size = c.varint();
    // Every instruction encodes to >= 5 bytes; a corrupt count must not
    // drive a multi-gigabyte reserve.
    if (code_size > c.remaining() / 5)
        throw TraceError("PROG code count exceeds chunk size");
    prog.code.reserve(static_cast<size_t>(code_size));
    for (uint64_t i = 0; i < code_size; ++i) {
        Instruction inst;
        const uint8_t op = c.u8();
        if (op >= static_cast<uint8_t>(Opcode::NUM_OPCODES))
            throw TraceError("PROG chunk holds an invalid opcode");
        inst.op = static_cast<Opcode>(op);
        inst.rd = c.u8();
        inst.rs1 = c.u8();
        inst.rs2 = c.u8();
        inst.imm = c.svarint();
        prog.code.push_back(inst);
    }
    const uint64_t data_count = c.varint();
    if (data_count > c.remaining() / 2)
        throw TraceError("PROG data count exceeds chunk size");
    prog.dataInit.reserve(static_cast<size_t>(data_count));
    for (uint64_t i = 0; i < data_count; ++i) {
        const Addr addr = static_cast<Addr>(c.varint());
        prog.dataInit.emplace_back(addr, c.svarint());
    }
    if (!c.atEnd())
        throw TraceError("trailing bytes in PROG chunk");
    normalizeDataImage(prog.dataInit);
    inf.codeSize = prog.code.size();
    inf.dataInitSize = prog.dataInit.size();
}

void
TraceReader::decodeProgramV2(ByteCursor c)
{
    prog.entry = static_cast<Addr>(c.varint());
    prog.name = inf.meta.programName;
    const uint64_t code_size = c.varint();
    // Four fixed plane bytes + >= 1 imm byte per instruction follow.
    if (code_size > c.remaining() / 5)
        throw TraceError("PROG code count exceeds chunk size");
    const size_t nc = static_cast<size_t>(code_size);
    const char *ops = c.take(nc);
    const char *rd = c.take(nc);
    const char *rs1 = c.take(nc);
    const char *rs2 = c.take(nc);
    const uint64_t imm_len = c.varint();
    if (imm_len > c.remaining())
        throw TraceError("PROG imm stream exceeds chunk size");
    ByteCursor ic(c.take(static_cast<size_t>(imm_len)),
                  static_cast<size_t>(imm_len));
    prog.code.reserve(static_cast<size_t>(
        std::min<uint64_t>(code_size, maxUpfrontReserve)));
    for (size_t i = 0; i < nc; ++i) {
        Instruction inst;
        const auto op = static_cast<uint8_t>(ops[i]);
        if (op >= static_cast<uint8_t>(Opcode::NUM_OPCODES))
            throw TraceError("PROG chunk holds an invalid opcode");
        inst.op = static_cast<Opcode>(op);
        inst.rd = static_cast<uint8_t>(rd[i]);
        inst.rs1 = static_cast<uint8_t>(rs1[i]);
        inst.rs2 = static_cast<uint8_t>(rs2[i]);
        inst.imm = ic.svarint();
        prog.code.push_back(inst);
    }
    if (!ic.atEnd())
        throw TraceError("trailing bytes in PROG imm stream");

    const uint64_t data_count = c.varint();
    const uint64_t addr_len = c.varint();
    if (addr_len > c.remaining())
        throw TraceError("PROG address stream exceeds chunk size");
    ByteCursor ac(c.take(static_cast<size_t>(addr_len)),
                  static_cast<size_t>(addr_len));
    // Each entry costs >= 1 address byte and >= 1 value byte.
    if (data_count > addr_len || data_count > c.remaining())
        throw TraceError("PROG data count exceeds chunk size");
    prog.dataInit.reserve(static_cast<size_t>(
        std::min<uint64_t>(data_count, maxUpfrontReserve)));
    Addr addr = 0;
    for (uint64_t i = 0; i < data_count; ++i) {
        addr += static_cast<Addr>(ac.varint());
        prog.dataInit.emplace_back(addr, c.svarint());
    }
    if (!ac.atEnd())
        throw TraceError("trailing bytes in PROG address stream");
    if (!c.atEnd())
        throw TraceError("trailing bytes in PROG chunk");
    normalizeDataImage(prog.dataInit);
    inf.codeSize = prog.code.size();
    inf.dataInitSize = prog.dataInit.size();
}

void
TraceReader::parseContainer(const std::string &path)
{
    std::string data;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            throw TraceError("cannot open trace file " + path);
        std::ostringstream ss;
        ss << in.rdbuf();
        data = ss.str();
    }
    inf.fileBytes = data.size();

    if (data.size() < 8 ||
        std::memcmp(data.data(), traceMagic, sizeof(traceMagic)) != 0) {
        throw TraceError(path + ": not a trace file (bad magic)");
    }
    {
        ByteCursor c(data.data() + 4, 4);
        const uint32_t version = c.u32();
        if (version < traceVersion1 || version > traceVersionMax) {
            throw TraceError(path + ": unsupported trace version " +
                             std::to_string(version) + " (reader handles " +
                             std::to_string(traceVersion1) + ".." +
                             std::to_string(traceVersionMax) + ")");
        }
        inf.version = version;
    }
    const bool v2 = inf.version >= traceVersion2;

    // Decode the codec envelope of one PROGZ/STPZ payload, verifying
    // the inner plaintext digest and the file-wide plaintext budget.
    uint64_t plain_total = 0;
    auto decompress = [&](const char *payload, uint32_t len,
                          int chunk_no) {
        ByteCursor z(payload, len);
        const uint8_t codec = z.u8();
        const uint64_t plain_len = z.varint();
        const uint64_t plain_fnv = z.u64();
        if (plain_len > maxPlainTraceBytes ||
            plain_total + plain_len > maxPlainTraceBytes) {
            throw TraceError(path + ": chunk " +
                             std::to_string(chunk_no) +
                             " claims an implausible plaintext size");
        }
        plain_total += plain_len;
        const size_t comp_len = z.remaining();
        const char *comp = z.take(comp_len);
        std::string plain;
        try {
            plain = codecDecompress(codec, comp, comp_len,
                                    static_cast<size_t>(plain_len));
        } catch (const TraceError &e) {
            throw TraceError(path + ": chunk " +
                             std::to_string(chunk_no) + ": " + e.what());
        }
        if (fnv1a(plain.data(), plain.size()) != plain_fnv) {
            throw TraceError(path + ": chunk " +
                             std::to_string(chunk_no) +
                             " plaintext checksum mismatch");
        }
        return std::make_pair(std::move(plain), codec);
    };

    size_t pos = 8;
    int chunk_no = 0;
    bool saw_end = false;
    uint64_t stream_fnv = fnvOffset;
    uint64_t steps_sum = 0;
    while (pos < data.size()) {
        if (saw_end)
            throw TraceError(path + ": data after END chunk");
        if (data.size() - pos < 9 + 8)
            throw TraceError(path + ": truncated chunk header");
        ByteCursor hdr(data.data() + pos, 9);
        const uint8_t type = hdr.u8();
        const uint32_t len = hdr.u32();
        const uint32_t records = hdr.u32();
        if (data.size() - pos - 9 < static_cast<size_t>(len) + 8)
            throw TraceError(path + ": truncated chunk payload");

        const char *payload = data.data() + pos + 9;
        uint64_t digest = fnv1a(data.data() + pos, 9);
        digest = fnv1a(payload, len, digest);
        {
            ByteCursor tail(payload + len, 8);
            if (tail.u64() != digest) {
                throw TraceError(path + ": chunk " +
                                 std::to_string(chunk_no) +
                                 " checksum mismatch");
            }
        }

        const auto ctype = static_cast<ChunkType>(type);
        // Program/step chunks come in a per-version flavor; the other
        // flavor is a format violation, not a decodable alternative.
        if ((ctype == ChunkType::PROG || ctype == ChunkType::STEPS) &&
            v2) {
            throw TraceError(path + ": uncompressed " +
                             (ctype == ChunkType::PROG
                                  ? std::string("PROG")
                                  : std::string("STEPS")) +
                             " chunk in a version-2 trace");
        }
        if ((ctype == ChunkType::PROGZ || ctype == ChunkType::STPZ) &&
            !v2) {
            throw TraceError(path + ": compressed " +
                             (ctype == ChunkType::PROGZ
                                  ? std::string("PROGZ")
                                  : std::string("STPZ")) +
                             " chunk in a version-1 trace");
        }
        if (chunk_no == 0 && ctype != ChunkType::META)
            throw TraceError(path + ": first chunk is not META");
        if (chunk_no == 1 && ctype != ChunkType::PROG &&
            ctype != ChunkType::PROGZ) {
            throw TraceError(path + ": second chunk is not PROG");
        }
        switch (ctype) {
          case ChunkType::META:
            if (chunk_no != 0)
                throw TraceError(path + ": duplicate META chunk");
            decodeMeta(ByteCursor(payload, len));
            break;
          case ChunkType::PROG:
            if (chunk_no != 1)
                throw TraceError(path + ": duplicate PROG chunk");
            decodeProgram(ByteCursor(payload, len));
            inf.chunkStats.push_back({ctype, 0, len, len});
            break;
          case ChunkType::PROGZ: {
            if (chunk_no != 1)
                throw TraceError(path + ": duplicate PROG chunk");
            auto [plain, codec] = decompress(payload, len, chunk_no);
            decodeProgramV2(ByteCursor(plain.data(), plain.size()));
            inf.chunkStats.push_back({ctype, codec, len, plain.size()});
            break;
          }
          case ChunkType::STEPS:
            if (chunk_no < 2)
                throw TraceError(path + ": STEPS before PROG");
            chunks.push_back({stepData.size(), len, records});
            stepData.append(payload, len);
            stream_fnv = fnv1a(payload, len, stream_fnv);
            steps_sum += records;
            ++inf.stepChunks;
            inf.chunkStats.push_back({ctype, 0, len, len});
            break;
          case ChunkType::STPZ: {
            if (chunk_no < 2)
                throw TraceError(path + ": STEPS before PROG");
            auto [plain, codec] = decompress(payload, len, chunk_no);
            std::string interleaved;
            try {
                interleaved = stepInterleavedFromColumns(
                    plain.data(), plain.size(), records);
            } catch (const TraceError &e) {
                throw TraceError(path + ": chunk " +
                                 std::to_string(chunk_no) + ": " +
                                 e.what());
            }
            chunks.push_back({stepData.size(), interleaved.size(),
                              records});
            stream_fnv = fnv1a(interleaved.data(), interleaved.size(),
                               stream_fnv);
            stepData += interleaved;
            steps_sum += records;
            ++inf.stepChunks;
            inf.chunkStats.push_back({ctype, codec, len, plain.size()});
            break;
          }
          case ChunkType::END: {
            if (chunk_no < 2)
                throw TraceError(path + ": END before PROG");
            ByteCursor c(payload, len);
            inf.totalSteps = c.u64();
            const uint64_t want_fnv = c.u64();
            inf.cleanHalt = c.u8() != 0;
            if (!c.atEnd())
                throw TraceError(path + ": trailing bytes in END chunk");
            if (inf.totalSteps != steps_sum) {
                throw TraceError(path + ": END claims " +
                                 std::to_string(inf.totalSteps) +
                                 " steps but chunks hold " +
                                 std::to_string(steps_sum));
            }
            if (want_fnv != stream_fnv)
                throw TraceError(path + ": step stream digest mismatch");
            saw_end = true;
            break;
          }
          default:
            throw TraceError(path + ": unknown chunk type " +
                             std::to_string(type));
        }
        pos += 9 + static_cast<size_t>(len) + 8;
        ++chunk_no;
    }
    if (!saw_end)
        throw TraceError(path + ": incomplete trace (missing END chunk)");
}

bool
StepCursor::next(StepResult &out)
{
    const auto &chunks = reader->chunks;
    for (;;) {
        if (chunkIdx >= chunks.size())
            return false;
        const TraceReader::StepChunk &c = chunks[chunkIdx];
        if (recordIdx == 0)
            cur = ByteCursor(reader->stepData.data() + c.offset,
                             c.length);
        if (recordIdx < c.records)
            break;
        if (!cur.atEnd())
            throw TraceError("trailing bytes in STEPS chunk");
        ++chunkIdx;
        recordIdx = 0;
    }

    const uint8_t flags = cur.u8();
    if (flags & ~0x1fu)
        throw TraceError("invalid step flags");
    StepResult s;
    s.taken = flags & 1;
    s.hasDest = flags & 2;
    s.isMem = flags & 4;
    s.halted = flags & 8;
    s.pc = prevPc + static_cast<Addr>(cur.svarint());
    s.inst = reader->prog.fetch(s.pc);
    s.nextPc = (flags & 16) ? s.pc + 1
                            : s.pc + static_cast<Addr>(cur.svarint());
    if (s.hasDest)
        s.destValue = cur.svarint();
    if (s.isMem) {
        s.memAddr = prevMemAddr + static_cast<Addr>(cur.svarint());
        s.memValue = cur.svarint();
        prevMemAddr = s.memAddr;
    }
    prevPc = s.pc;
    ++recordIdx;
    ++decoded;
    out = s;
    return true;
}

bool
TraceReader::verify(const std::string &path, std::string *error,
                    TraceInfo *info)
{
    try {
        TraceReader r(path);
        StepCursor cursor(r);
        StepResult s;
        while (cursor.next(s)) {
        }
        if (info)
            *info = r.info();
        return true;
    } catch (const std::exception &e) {
        if (error)
            *error = e.what();
        return false;
    }
}

} // namespace tproc::replay
