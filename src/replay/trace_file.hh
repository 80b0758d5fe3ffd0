/**
 * @file
 * The workload trace container: a versioned, compact, checksummed
 * binary file holding one architectural execution as the Program
 * itself plus a digest chain over the steps it executes. The emulator
 * is deterministic, so the program implies the step stream; the
 * digests pin that stream down, and a reader regenerates it by
 * re-emulation. A timing simulation runs bit-identically off the file
 * with no workload regeneration.
 *
 * Layout (all integers little-endian; varints are LEB128, signed
 * values zigzag-mapped):
 *
 *   file   := "TPRC" u32(3) META PROGZ DGST END
 *   chunk  := u8(type) u32(payloadLen) u32(recordCount)
 *             payload[payloadLen] u64(fnv1a of the preceding fields)
 *
 *   META   := str(workload) u64(seed) u64(scale bits) u64(captureCap)
 *             str(programName)
 *   PROGZ  := u8(codecId) varint(plainLen) u64(fnv1a of plaintext)
 *             compressed[...]
 *   DGST   := u64(digest)[recordCount]
 *   END    := u64(totalSteps) u8(cleanHalt) u64(fnv1a of every file
 *             byte before the END chunk)
 *
 * Digest i covers steps [i * stepsPerDigest, (i + 1) * stepsPerDigest)
 * of the execution, the last one whatever remains, so a trace of n
 * steps holds exactly ceil(n / stepsPerDigest) digests. Each folds
 * every StepResult field the processor's retirement check reads, a
 * 64-bit word at a time (see stepDigest in trace_file.cc). END's
 * digest binds META, PROGZ and the digest chain to one another: no
 * chunk can be swapped or resealed alone.
 *
 * The PROGZ plaintext, compressed by the codec in codec.hh:
 *
 *   plain := varint(entry) varint(nCode)
 *            op[nCode] rd[nCode] rs1[nCode] rs2[nCode]
 *            varint(immLen) immSvarints
 *            varint(nData) varint(addrLen)
 *            addrDeltaVarints valueSvarints
 *     — code fields split into per-field planes, and the data image
 *     dict-coded as address deltas plus a value stream (mostly
 *     zero/repeating pages, which the codec's RLE path collapses).
 *
 * Writers emit the data image as the Program holds it: sorted by
 * address, one entry per word. Readers accept any order and repeated
 * addresses (an address delta of zero) and normalise the decoded image
 * with normalizeDataImage(), so the last entry for an address wins.
 *
 * A program holds at most maxTraceCode instructions; a PROGZ chunk
 * that claims more is refused before the decoder stores any of it.
 *
 * TraceReader::capture() is the only writer. It decodes the PROGZ it
 * encoded with the reader's own decoder and emulates the decoded
 * program through the loop a parse verifies with, so the execution it
 * records is the one a parse re-emulates. It writes a temp file and
 * renames it into place, so an interrupted capture leaves no file at
 * the final path.
 */

#ifndef TPROC_REPLAY_TRACE_FILE_HH
#define TPROC_REPLAY_TRACE_FILE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "emulator/emulator.hh"
#include "program/program.hh"
#include "replay/trace_format.hh"

namespace tproc::replay
{

/** Capture identity carried in the META chunk. */
struct TraceMeta
{
    std::string workload;       //!< makeWorkload name ("" = ad hoc)
    uint64_t seed = 1;
    double scale = 1.0;
    /** Emulator step limit the capture ran with (includes the retire
     *  overshoot slack); UINT64_MAX = ran to natural HALT. */
    uint64_t captureCap = UINT64_MAX;
    std::string programName;
};

/** Per-chunk size accounting (PROGZ and DGST). */
struct ChunkStat
{
    ChunkType type = ChunkType::PROGZ;
    uint8_t codec = 0;          //!< CodecId; 0 (raw) for DGST
    size_t storedBytes = 0;     //!< payload bytes on disk
    size_t plainBytes = 0;      //!< decoded plaintext bytes
};

/** Everything known about a trace after parsing it. */
struct TraceInfo
{
    TraceMeta meta;
    uint32_t version = 0;
    uint64_t totalSteps = 0;
    bool cleanHalt = false;     //!< execution ends with the program's HALT
    size_t codeSize = 0;
    size_t dataInitSize = 0;
    size_t fileBytes = 0;
    size_t digests = 0;         //!< DGST entries
    std::vector<ChunkStat> chunkStats;
};

/**
 * Code budget: the most instructions a trace's program may hold,
 * 16 MiB of Instruction (the size of the data-memory page budget). The
 * largest program the repo builds has under 1,000.
 */
constexpr uint64_t maxTraceCode = uint64_t{1} << 20;

/**
 * The longest PROGZ plaintext a program within the code budget and the
 * data-memory page budget encodes to, with every varint at its longest:
 * four plane bytes and an imm per instruction, an address delta and a
 * value per data word, and five counts (entry, code size, imm stream
 * length, data count, address stream length). About 57 MB. A PROGZ
 * chunk that claims more is refused before it is decompressed.
 */
constexpr uint64_t maxPlainTraceBytes =
    maxTraceCode * (4 + maxVarintBytes) +
    SparseMemory::maxPages * SparseMemory::pageWords * 2 * maxVarintBytes +
    5 * maxVarintBytes;

/**
 * The parsed, verified, immutable form of a trace file. The
 * constructor loads the whole file and validates the container
 * (magic, version, chunk order, every chunk checksum, END's digest),
 * decodes META and the Program, and then verifies the execution: it
 * re-emulates the program for END's step count and compares each
 * stepsPerDigest-step chunk's digest with the stored one. A trace that
 * parses therefore replays exactly the execution that was captured. It
 * holds no iteration state, so one parsed trace is shared by any
 * number of concurrent replays. Throws TraceError on any corruption,
 * truncation, old version or divergence, naming the first digest
 * chunk that differs.
 */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path);

    /**
     * Capture prog into a trace file at path, and return the reader a
     * parse of that file would produce. The capture is its own
     * verification: it encodes META and PROGZ, decodes that PROGZ with
     * the reader's decoder, emulates the decoded program for up to
     * meta.captureCap steps (or to its HALT) through the loop a parse
     * re-emulates with, and writes DGST and END to a temp file renamed
     * onto path, so nothing appears at path before the whole file.
     * Throws TraceError naming path when the program cannot be stored
     * (over the code budget, an out-of-range register, a data image or
     * store loop beyond the page budget) or on I/O failure; path is
     * then left untouched.
     */
    static std::shared_ptr<const TraceReader>
    capture(const Program &prog, const TraceMeta &meta,
            const std::string &path);

    const TraceInfo &info() const { return inf; }
    const TraceMeta &meta() const { return inf.meta; }
    const Program &program() const { return prog; }

    /**
     * Parse and verify path. Returns true and fills info (when
     * non-null) on success; false with the failure reason in error
     * (when non-null) otherwise. Never throws.
     */
    static bool verify(const std::string &path, std::string *error,
                       TraceInfo *info = nullptr);

  private:
    TraceReader() = default;

    void decodeMeta(ByteCursor cur);
    void decodeProgz(ByteCursor cur);
    void decodeProgram(ByteCursor cur);
    void verifyExecution(const std::vector<uint64_t> &digests,
                         const std::string &path) const;

    Program prog;
    TraceInfo inf;
};

} // namespace tproc::replay

#endif // TPROC_REPLAY_TRACE_FILE_HH
