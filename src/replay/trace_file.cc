#include "replay/trace_file.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "emulator/emulator.hh"

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

/** Upfront reserve cap for counts read from (possibly lying) chunk
 *  payloads; vectors grow geometrically past it only as real decoded
 *  data materializes. */
constexpr uint64_t maxUpfrontReserve = uint64_t{1} << 20;

/** The four chunks of a file, in order. */
constexpr ChunkType chunkOrder[] = {ChunkType::META, ChunkType::PROG,
                                    ChunkType::DGST, ChunkType::END};

const char *
chunkName(ChunkType t)
{
    switch (t) {
      case ChunkType::META: return "META";
      case ChunkType::END: return "END";
      case ChunkType::PROG: return "PROG";
      case ChunkType::DGST: return "DGST";
    }
    return "unknown";
}

/**
 * Fold one step into the digest h. Every StepResult field that the
 * processor's retirement check reads (pc, the instruction, nextPc, the
 * branch outcome, destValue, memAddr, memValue), plus the remaining
 * flags, is one 64-bit word. Each word is multiplied by its own odd
 * constant, so the multiplies are independent and overlap; the xor of
 * the products is folded into h with one more multiply and an
 * xorshift, which carries high bits down into later steps' low bits.
 */
inline uint64_t
stepDigest(uint64_t h, const StepResult &s)
{
    const Instruction &in = s.inst;
    const uint64_t shape = uint64_t{static_cast<uint8_t>(in.op)} |
        uint64_t{in.rd} << 8 | uint64_t{in.rs1} << 16 |
        uint64_t{in.rs2} << 24 | uint64_t{s.taken} << 32 |
        uint64_t{s.hasDest} << 33 | uint64_t{s.isMem} << 34 |
        uint64_t{s.halted} << 35;
    const uint64_t w = (s.pc * 0x9e3779b97f4a7c15ull) ^
        (shape * 0xc2b2ae3d27d4eb4full) ^
        (static_cast<uint64_t>(in.imm) * 0x165667b19e3779f9ull) ^
        (s.nextPc * 0xd6e8feb86659fd93ull) ^
        (static_cast<uint64_t>(s.destValue) * 0xff51afd7ed558ccdull) ^
        (s.memAddr * 0xc4ceb9fe1a85ec53ull) ^
        (static_cast<uint64_t>(s.memValue) * 0x94d049bb133111ebull);
    h = (h ^ w) * 0xbf58476d1ce4e5b9ull;
    return h ^ (h >> 31);
}

/** Append one chunk: header, payload, and the checksum over both. */
void
appendChunk(std::string &out, ChunkType type, uint32_t records,
            const std::string &payload)
{
    const size_t start = out.size();
    out.push_back(static_cast<char>(type));
    putU32(out, static_cast<uint32_t>(payload.size()));
    putU32(out, records);
    out.append(payload);
    putU64(out, fnv1a(out.data() + start, out.size() - start));
}

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

/** The PROG payload that trace_file.hh describes. */
std::string
encodeProgram(const Program &prog)
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

/** A register field read from a file: in range, or a TraceError. */
ArchReg
checkedReg(char byte, size_t inst, const char *field)
{
    const auto r = static_cast<uint8_t>(byte);
    if (r >= numArchRegs) {
        throw TraceError("PROG instruction " + std::to_string(inst) +
                         " names " + field + " register " +
                         std::to_string(r) + " (the ISA has " +
                         std::to_string(numArchRegs) + ")");
    }
    return r;
}

/** An execution as a trace records it. */
struct Execution
{
    std::vector<uint64_t> digests;  //!< one per stepsPerDigest steps
    uint64_t steps = 0;
    bool halted = false;            //!< the program reached its HALT
};

/**
 * Emulate prog for up to max_steps steps, or to its HALT, folding each
 * stepsPerDigest-step chunk into one digest (the last chunk whatever
 * remains). Capture writes the result; a parse compares it with DGST
 * and END.
 */
Execution
emulate(const Program &prog, uint64_t max_steps)
{
    Execution run;
    Emulator emu(prog);
    while (run.steps < max_steps && !emu.halted()) {
        const uint64_t chunk_end =
            run.steps + std::min<uint64_t>(max_steps - run.steps,
                                           stepsPerDigest);
        uint64_t h = 0;
        for (; run.steps < chunk_end && !emu.halted(); ++run.steps)
            h = stepDigest(h, emu.step());
        run.digests.push_back(h);
    }
    run.halted = emu.halted();
    return run;
}

/** Write bytes to a temp file beside path and rename it onto path. */
void
writeAtomically(const std::string &path, const std::string &bytes)
{
    const std::string tmp_path = uniqueTmpPath(path);
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw TraceError("cannot create trace file " + tmp_path);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (!out) {
        std::remove(tmp_path.c_str());
        throw TraceError("I/O error writing trace " + tmp_path);
    }
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
        std::remove(tmp_path.c_str());
        throw TraceError("cannot rename " + tmp_path + " to " + path);
    }
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Capture.
// ---------------------------------------------------------------------

std::shared_ptr<const TraceReader>
TraceReader::capture(const Program &program, const TraceMeta &meta,
                     const std::string &path)
{
    std::string bytes(traceMagic, sizeof(traceMagic));
    putU32(bytes, traceVersion);
    const std::string meta_payload = encodeMeta(meta);
    const std::string prog_payload = encodeProgram(program);
    appendChunk(bytes, ChunkType::META, 0, meta_payload);
    appendChunk(bytes, ChunkType::PROG, 0, prog_payload);

    // Read back what was encoded, and emulate that: the reader holds
    // what a parse of the file decodes, and the digests are the ones a
    // parse reproduces.
    std::shared_ptr<TraceReader> r(new TraceReader());
    Execution run;
    try {
        r->decodeMeta(ByteCursor(meta_payload.data(), meta_payload.size()));
        r->decodeProgram(
            ByteCursor(prog_payload.data(), prog_payload.size()));
        run = emulate(r->prog, meta.captureCap);
    } catch (const TraceError &e) {
        throw TraceError(path + ": " + e.what());
    } catch (const MemoryBudgetError &e) {
        throw TraceError(path + ": " + e.what());
    }

    std::string chain;
    for (uint64_t d : run.digests)
        putU64(chain, d);
    appendChunk(bytes, ChunkType::DGST,
                static_cast<uint32_t>(run.digests.size()), chain);
    std::string end;
    putU64(end, run.steps);
    end.push_back(run.halted ? 1 : 0);
    putU64(end, fnv1a(bytes.data(), bytes.size()));
    appendChunk(bytes, ChunkType::END, 0, end);
    writeAtomically(path, bytes);

    TraceInfo &inf = r->inf;
    inf.version = traceVersion;
    inf.totalSteps = run.steps;
    inf.cleanHalt = run.halted;
    inf.fileBytes = bytes.size();
    inf.digests = run.digests.size();
    inf.chunkStats.push_back({ChunkType::DGST, chain.size()});
    return r;
}

// ---------------------------------------------------------------------
// TraceReader.
// ---------------------------------------------------------------------

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
    inf.chunkStats.push_back({ChunkType::PROG, c.remaining()});
    prog.entry = static_cast<Addr>(c.varint());
    prog.name = inf.meta.programName;
    const uint64_t code_size = c.varint();
    if (code_size > maxTraceCode) {
        throw TraceError("PROG program of " + std::to_string(code_size) +
                         " instructions exceeds the code budget of " +
                         std::to_string(maxTraceCode) + " instructions");
    }
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
    prog.code.reserve(nc);
    for (size_t i = 0; i < nc; ++i) {
        Instruction inst;
        const auto op = static_cast<uint8_t>(ops[i]);
        if (op >= static_cast<uint8_t>(Opcode::NUM_OPCODES))
            throw TraceError("PROG chunk holds an invalid opcode");
        inst.op = static_cast<Opcode>(op);
        // The emulator and the rename map index fixed arrays by these.
        inst.rd = checkedReg(rd[i], i, "rd");
        inst.rs1 = checkedReg(rs1[i], i, "rs1");
        inst.rs2 = checkedReg(rs2[i], i, "rs2");
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
    if (data_count > SparseMemory::maxPages * SparseMemory::pageWords) {
        throw TraceError("PROG data image of " +
                         std::to_string(data_count) +
                         " words exceeds the data-memory page budget");
    }
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

TraceReader::TraceReader(const std::string &path)
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
    inf.version = ByteCursor(data.data() + 4, 4).u32();
    if (inf.version >= 1 && inf.version < traceVersion) {
        throw TraceError(path + ": trace version " +
                         std::to_string(inf.version) +
                         " is a retired layout, which replay no longer "
                         "reads; re-record it (tproc-trace record)");
    }
    if (inf.version != traceVersion) {
        throw TraceError(path + ": unsupported trace version " +
                         std::to_string(inf.version) + " (reader handles " +
                         std::to_string(traceVersion) + ")");
    }

    // The four chunks, in their fixed order, each checksummed.
    struct Chunk
    {
        const char *payload;
        uint32_t len;
        uint32_t records;
    };
    Chunk chunks[4];
    size_t pos = 8;
    size_t end_pos = 0;
    for (int i = 0; i < 4; ++i) {
        const std::string name = chunkName(chunkOrder[i]);
        if (data.size() - pos < 9 + 8)
            throw TraceError(path + ": truncated before the " + name +
                             " chunk");
        ByteCursor hdr(data.data() + pos, 9);
        const auto type = static_cast<ChunkType>(hdr.u8());
        const uint32_t len = hdr.u32();
        const uint32_t records = hdr.u32();
        if (data.size() - pos - 9 < static_cast<size_t>(len) + 8)
            throw TraceError(path + ": truncated " + name + " chunk");
        const char *payload = data.data() + pos + 9;
        if (ByteCursor(payload + len, 8).u64() !=
            fnv1a(data.data() + pos, 9 + static_cast<size_t>(len))) {
            throw TraceError(path + ": chunk " + std::to_string(i) +
                             " checksum mismatch");
        }
        if (type != chunkOrder[i]) {
            throw TraceError(path + ": chunk " + std::to_string(i) +
                             " has type " +
                             std::to_string(static_cast<int>(type)) +
                             " where " + name + " belongs");
        }
        chunks[i] = {payload, len, records};
        end_pos = pos;
        pos += 9 + static_cast<size_t>(len) + 8;
    }
    if (pos != data.size())
        throw TraceError(path + ": data after END chunk");

    // END first: its digest covers every byte before it, so a chunk
    // resealed on its own is caught before any decoder reads it.
    {
        ByteCursor c(chunks[3].payload, chunks[3].len);
        inf.totalSteps = c.u64();
        const uint8_t halt = c.u8();
        const uint64_t sealed = c.u64();
        if (!c.atEnd())
            throw TraceError(path + ": trailing bytes in END chunk");
        if (halt > 1)
            throw TraceError(path + ": END clean-halt flag is not 0 or 1");
        inf.cleanHalt = halt != 0;
        if (sealed != fnv1a(data.data(), end_pos)) {
            throw TraceError(path + ": END digest mismatch (META, PROG "
                             "and DGST are not the chunks it sealed)");
        }
    }

    try {
        decodeMeta(ByteCursor(chunks[0].payload, chunks[0].len));
        decodeProgram(ByteCursor(chunks[1].payload, chunks[1].len));
    } catch (const TraceError &e) {
        throw TraceError(path + ": " + e.what());
    }

    const Chunk &dg = chunks[2];
    if (dg.len != uint64_t{dg.records} * 8)
        throw TraceError(path + ": DGST length disagrees with its count");
    std::vector<uint64_t> digests(dg.records);
    ByteCursor dc(dg.payload, dg.len);
    for (uint64_t &d : digests)
        d = dc.u64();
    inf.digests = digests.size();
    inf.chunkStats.push_back({ChunkType::DGST, dg.len});

    // Bounded work: the chain must cover END's step count exactly, or
    // nothing is emulated. Parse time is then bounded by file size.
    const uint64_t covered = uint64_t{dg.records} * stepsPerDigest;
    if (inf.totalSteps > covered) {
        throw TraceError(path + ": END claims " +
                         std::to_string(inf.totalSteps) +
                         " steps but the digest chain covers at most " +
                         std::to_string(covered));
    }
    if (covered - inf.totalSteps >= stepsPerDigest) {
        throw TraceError(path + ": the digest chain holds " +
                         std::to_string(dg.records) + " digests for " +
                         std::to_string(inf.totalSteps) + " steps");
    }
    // An image or a store loop that overruns the data-memory page
    // budget makes a bad file, like any other verification failure.
    try {
        verifyExecution(digests, path);
    } catch (const MemoryBudgetError &e) {
        throw TraceError(path + ": " + e.what());
    }
}

void
TraceReader::verifyExecution(const std::vector<uint64_t> &digests,
                             const std::string &path) const
{
    const Execution run = emulate(prog, inf.totalSteps);
    // The chunks re-emulation ran in full: a halt before END's step
    // count cuts short the chunk it falls in.
    const size_t whole = run.steps == inf.totalSteps
        ? run.digests.size()
        : static_cast<size_t>(run.steps / stepsPerDigest);
    for (size_t c = 0; c < digests.size(); ++c) {
        if (c < whole && run.digests[c] == digests[c])
            continue;
        const uint64_t first = uint64_t{c} * stepsPerDigest;
        const uint64_t last =
            std::min<uint64_t>(first + stepsPerDigest, inf.totalSteps);
        throw TraceError(
            path + ": digest chunk " + std::to_string(c) + " (steps " +
            std::to_string(first) + ".." + std::to_string(last - 1) +
            ") differs: " +
            (c < whole ? std::string("re-emulating the program does not "
                                     "reproduce the captured execution")
                       : "the program halts after " +
                     std::to_string(run.steps) + " steps"));
    }
    if (run.halted != inf.cleanHalt) {
        throw TraceError(path + ": END says the execution " +
                         (inf.cleanHalt ? "halts" : "runs on") +
                         " after " + std::to_string(inf.totalSteps) +
                         " steps, but the program " +
                         (run.halted ? "halts" : "runs on"));
    }
}

bool
TraceReader::verify(const std::string &path, std::string *error,
                    TraceInfo *info)
{
    try {
        TraceReader r(path);
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
