/**
 * @file
 * The workload trace container: a versioned, compact, checksummed
 * binary file holding one architectural execution — the Program itself
 * plus its full StepResult stream — so a timing simulation can run
 * bit-identically off the file with no workload regeneration and no
 * live emulator.
 *
 * Layout (all integers little-endian; varints are LEB128, signed
 * values zigzag-mapped):
 *
 *   file   := "TPRC" u32(version) chunk...
 *   chunk  := u8(type) u32(payloadLen) u32(recordCount)
 *             payload[payloadLen] u64(fnv1a of the preceding fields)
 *
 * Chunk sequence is fixed: one META (workload name, seed, scale,
 * capture cap, program name), one PROG (v1: entry, code, sorted data
 * image) or PROGZ (v2), any number of STEPS (v1, up to stepsPerChunk
 * compact step records each) or STPZ (v2) chunks, one END (total
 * steps, running digest of the step stream, clean-halt flag). The END
 * chunk doubles as the completeness marker: TraceWriter stages
 * everything in a temp file and renames it into place only after END
 * is on disk, so an interrupted capture leaves either no trace file at
 * the final path or one that fails verification — never a silently
 * short replay.
 *
 * Step record := u8 flags, svarint(pc - prevPc),
 *                [svarint(nextPc - pc) unless sequential],
 *                [svarint destValue if hasDest],
 *                [svarint(memAddr - prevMemAddr), svarint memValue
 *                 if isMem]
 * The static instruction is not stored; readers refetch it from the
 * embedded Program by pc.
 *
 * Writers emit the data image as the Program holds it: sorted by
 * address, one entry per word. Readers accept any order and repeated
 * addresses (a v2 address delta of zero) and normalise the decoded
 * image with normalizeDataImage(), so the last entry for an address
 * wins.
 *
 * Version 2 compression (codec.hh holds the block codec itself):
 * PROGZ and STPZ payloads are
 *
 *   zpayload := u8(codecId) varint(plainLen) u64(fnv1a of plaintext)
 *               compressed[...]
 *
 * so the outer chunk digest still localizes file corruption to a
 * chunk, and the inner plaintext digest catches a decode that
 * "succeeds" with wrong bytes. The plaintexts are transforms chosen
 * for the codec, not the raw v1 payloads:
 *
 *   PROGZ plain := varint(entry) varint(nCode)
 *                  op[nCode] rd[nCode] rs1[nCode] rs2[nCode]
 *                  varint(immLen) immSvarints
 *                  varint(nData) varint(addrLen)
 *                  addrDeltaVarints valueSvarints
 *     — code fields split into per-field planes, and the sorted data
 *     image dict-coded as address deltas plus a value stream (mostly
 *     zero/repeating pages, which the codec's RLE path collapses).
 *
 *   STPZ plain  := varint(len) flagBytes   varint(len) pcDeltas
 *                  varint(len) nextPcDeltas varint(len) destValues
 *                  varint(len) memAddrDeltas varint(len) memValues
 *     — the interleaved v1 records split into per-field streams
 *     (column order is record order, filtered by each record's
 *     flags). Readers transcode the columns back to the exact v1
 *     interleaved bytes, so the END chunk's stream digest is defined
 *     over the v1 encoding in both versions and a v1 -> v2
 *     recompression preserves it bit for bit.
 */

#ifndef TPROC_REPLAY_TRACE_FILE_HH
#define TPROC_REPLAY_TRACE_FILE_HH

#include <cstdint>
#include <fstream>
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

/** Per-chunk compression accounting (PROG[Z] and STEPS/STPZ only). */
struct ChunkStat
{
    ChunkType type = ChunkType::PROG;
    uint8_t codec = 0;          //!< CodecId; 0 (raw) for v1 chunks
    size_t storedBytes = 0;     //!< payload bytes on disk
    size_t plainBytes = 0;      //!< decoded plaintext bytes
};

/** Everything known about a trace after parsing it. */
struct TraceInfo
{
    TraceMeta meta;
    uint32_t version = 0;       //!< container version (1 or 2)
    uint64_t totalSteps = 0;
    bool cleanHalt = false;     //!< stream ends with the program's HALT
    size_t codeSize = 0;
    size_t dataInitSize = 0;
    size_t fileBytes = 0;
    size_t stepChunks = 0;
    std::vector<ChunkStat> chunkStats;
};

/**
 * Streams StepResults into a trace file. Crash-safe: writes to
 * "<path>.tmp.<pid>.<seq>" and renames onto path in finalize(); a
 * writer destroyed (or killed) before finalize() leaves nothing at
 * path. Throws TraceError on I/O failure.
 */
class TraceWriter
{
  public:
    /** compress selects the container version: true (the default)
     *  writes version 2 with codec-compressed PROGZ/STPZ chunks,
     *  false writes a version-1 file bit-identical to the pre-v2
     *  writer's output. */
    TraceWriter(std::string path, const TraceMeta &meta,
                const Program &prog, bool compress = true);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Record one architectural step. */
    void append(const StepResult &s);

    /** Steps recorded so far. */
    uint64_t steps() const { return totalSteps; }

    /** Seal the file: flush, write END, rename into place. */
    void finalize();

  private:
    void writeChunk(ChunkType type, uint32_t records,
                    const std::string &payload);
    void writeCompressedChunk(ChunkType type, uint32_t records,
                              const std::string &plain);
    void flushSteps();

    std::string finalPath;
    std::string tmpPath;
    std::ofstream out;
    bool compressed;
    std::string stepPayload;
    uint32_t stepRecords = 0;
    uint64_t totalSteps = 0;
    uint64_t streamFnv = fnvOffset;
    Addr prevPc = 0;
    Addr prevMemAddr = 0;
    bool sawHalt = false;
    bool finalized = false;
};

/**
 * The parsed, immutable form of a trace file. The constructor loads
 * the whole file and validates the container (magic, version, chunk
 * sequence, every chunk checksum, step totals, stream digest) and
 * materializes the embedded Program; it holds no iteration state, so
 * one parsed trace is shared by any number of concurrent replays —
 * capture once, parse once, replay many. Step decoding lives in
 * StepCursor. Throws TraceError on any corruption, truncation, or
 * version mismatch.
 */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path);

    const TraceInfo &info() const { return inf; }
    const TraceMeta &meta() const { return inf.meta; }
    const Program &program() const { return prog; }

    /**
     * Full-file check: parse the container and decode every record.
     * Returns true and fills info (when non-null) on success; false
     * with the failure reason in error (when non-null) otherwise.
     * Never throws.
     */
    static bool verify(const std::string &path, std::string *error,
                       TraceInfo *info = nullptr);

  private:
    friend class StepCursor;

    struct StepChunk
    {
        size_t offset;          //!< payload start within stepData
        size_t length;
        uint32_t records;
    };

    void parseContainer(const std::string &path);
    void decodeProgram(ByteCursor cur);
    void decodeProgramV2(ByteCursor cur);
    void decodeMeta(ByteCursor cur);

    /**
     * Every step chunk's plaintext in v1 interleaved record form,
     * concatenated in stream order. For a v1 file these are the
     * payload bytes verbatim; for v2 each STPZ chunk is decompressed
     * and column-transcoded exactly once, here, at parse time — so the
     * TraceStore's process-wide reader cache makes replay-many pay
     * decompression once per file. The raw file bytes are not
     * retained.
     */
    std::string stepData;
    Program prog;
    TraceInfo inf;
    std::vector<StepChunk> chunks;
};

/**
 * Sequential step decoder over a parsed trace. Holds all iteration
 * state, so independent cursors replay one shared TraceReader
 * concurrently. Throws TraceError on malformed step records.
 */
class StepCursor
{
  public:
    explicit StepCursor(const TraceReader &reader_) : reader(&reader_) {}

    /** Decode the next step into out; false at the end of the stream. */
    bool next(StepResult &out);

    /** Steps decoded so far. */
    uint64_t stepsRead() const { return decoded; }

  private:
    const TraceReader *reader;
    size_t chunkIdx = 0;
    size_t recordIdx = 0;       //!< record within current chunk
    ByteCursor cur{nullptr, 0};
    uint64_t decoded = 0;
    Addr prevPc = 0;
    Addr prevMemAddr = 0;
};

} // namespace tproc::replay

#endif // TPROC_REPLAY_TRACE_FILE_HH
