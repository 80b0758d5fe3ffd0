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
 * TraceWriter builds the file in memory and writes it to a temp file
 * renamed into place in finalize(), so an interrupted capture leaves no
 * file at the final path.
 */

#ifndef TPROC_REPLAY_TRACE_FILE_HH
#define TPROC_REPLAY_TRACE_FILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "emulator/arch_source.hh"
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
 * Records one execution of prog into a trace file. Steps are folded
 * into the digest chain as they are appended; nothing touches the file
 * system until finalize(), which writes a temp file
 * ("<path>.tmp.<pid>.<seq>") and renames it onto path. A writer
 * destroyed (or killed) before finalize() leaves nothing behind.
 * Throws TraceError on I/O failure.
 */
class TraceWriter
{
  public:
    TraceWriter(std::string path, const TraceMeta &meta,
                const Program &prog);

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Record one architectural step. */
    void append(const StepResult &s);

    /** Steps recorded so far. */
    uint64_t steps() const { return totalSteps; }

    /** Seal the file: DGST and END, then write and rename into place. */
    void finalize();

  private:
    std::string finalPath;
    std::string bytes;          //!< header, META and PROGZ so far
    std::vector<uint64_t> digests;
    uint64_t digest = 0;        //!< of the current partial chunk
    uint64_t totalSteps = 0;
    bool sawHalt = false;
    bool finalized = false;
};

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
    void decodeMeta(ByteCursor cur);
    void decodeProgram(ByteCursor cur);
    void verifyExecution(const std::vector<uint64_t> &digests,
                         const std::string &path) const;

    Program prog;
    TraceInfo inf;
};

} // namespace tproc::replay

#endif // TPROC_REPLAY_TRACE_FILE_HH
