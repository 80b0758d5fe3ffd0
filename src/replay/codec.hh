/**
 * @file
 * In-repo block codec for compressed (version 2) trace chunks: an
 * LZ77-lite byte compressor — greedy hash-table match finder over a
 * sliding window covering the whole block, varint-coded literal-run /
 * (length, distance) tokens — with distance-1 matches doubling as RLE
 * for the zero/repeating pages that dominate data images. No external
 * dependencies; the format is self-contained and versioned by the
 * codec id byte each compressed chunk carries.
 *
 * Compressed token stream:
 *
 *   tokens := token... ; decoding stops when plainLen bytes are out
 *   token  := varint(tag)
 *             tag bit 0 clear: literal run of (tag >> 1) bytes, the
 *                              raw bytes follow
 *             tag bit 0 set:   match of (tag >> 1) + minMatchLen bytes
 *                              at varint(distance) bytes back (>= 1;
 *                              distance < length copies overlap:
 *                              byte i repeats byte i - distance —
 *                              that is the RLE case)
 *
 * Every decoder error (token overruns the block, bad distance, stream
 * ends early or late) throws TraceError; the caller layers a plaintext
 * checksum on top so a decode that "succeeds" with wrong bytes is
 * still caught.
 */

#ifndef TPROC_REPLAY_CODEC_HH
#define TPROC_REPLAY_CODEC_HH

#include <cstdint>
#include <string>

#include "replay/trace_format.hh"

namespace tproc::replay
{

/** Codec ids carried in compressed chunk headers. */
enum class CodecId : uint8_t
{
    RAW = 0,        //!< stored verbatim (incompressible blocks)
    LZ = 1          //!< the LZ77-lite token stream above
};

/** Smallest back-reference worth a token (shorter stays literal). */
constexpr size_t lzMinMatch = 4;

/** LZ77-lite compress. Output may exceed the input for incompressible
 *  data; codecCompress below falls back to RAW in that case. */
std::string lzCompress(const std::string &plain);

/**
 * Inverse of lzCompress: decode exactly plain_len bytes from the
 * token stream at data[0, n). Throws TraceError on any malformed
 * stream (truncated token, bad distance, length mismatch).
 */
std::string lzDecompress(const char *data, size_t n, size_t plain_len);

/** A compressed block plus the codec that produced it. */
struct CodecResult
{
    CodecId codec = CodecId::RAW;
    std::string bytes;
};

/** Compress with LZ, falling back to RAW when LZ does not shrink. */
CodecResult codecCompress(const std::string &plain);

/**
 * Decode a block produced by codecCompress. Throws TraceError for an
 * unknown codec id or a malformed stream.
 */
std::string codecDecompress(uint8_t codec, const char *data, size_t n,
                            size_t plain_len);

/** Human-readable codec name ("raw", "lz", or "codec<N>"). */
std::string codecName(uint8_t codec);

} // namespace tproc::replay

#endif // TPROC_REPLAY_CODEC_HH
