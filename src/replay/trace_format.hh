/**
 * @file
 * On-disk encoding primitives for the workload trace format: explicit
 * little-endian fixed-width integers, LEB128 varints with zigzag for
 * signed values, and the FNV-1a checksum that guards every chunk.
 * trace_file.hh documents the container layout built from these.
 */

#ifndef TPROC_REPLAY_TRACE_FORMAT_HH
#define TPROC_REPLAY_TRACE_FORMAT_HH

#include <cstdint>
#include <stdexcept>
#include <string>

namespace tproc::replay
{

/** First bytes of every trace file. */
constexpr char traceMagic[4] = {'T', 'P', 'R', 'C'};

/**
 * Container version. Version 4 stores the program, uncompressed, and a
 * digest chain over its execution (see trace_file.hh). Versions 1 and
 * 2 held the step stream itself, and version 3 compressed the program;
 * readers reject all three with a request to re-record. Bump
 * traceVersion on any further incompatible layout change.
 */
constexpr uint32_t traceVersion = 4;

/** Chunk type tags, in file order: META, PROG, DGST, END. */
enum class ChunkType : uint8_t
{
    META = 1,       //!< workload identity: name, seed, scale, capture cap
    END = 4,        //!< step total, clean-halt flag, digest of the rest
    DGST = 7,       //!< one execution digest per stepsPerDigest steps
    PROG = 8        //!< column-transformed Program
};

/** Steps covered by each DGST digest (the verification granularity). */
constexpr uint32_t stepsPerDigest = 4096;

/** What TraceReader and the writers throw on I/O or format trouble. */
struct TraceError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** @name FNV-1a (64-bit) — the per-chunk checksum and END's digest. */
/// @{
constexpr uint64_t fnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t fnvPrime = 0x100000001b3ull;

inline uint64_t
fnv1a(const void *data, size_t n, uint64_t seed = fnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint64_t h = seed;
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= fnvPrime;
    }
    return h;
}
/// @}

/** @name Little-endian fixed-width append / read. */
/// @{
inline void
putU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void
putU64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
/// @}

/** @name Varints (LEB128) and zigzag signed mapping. */
/// @{
inline void
putVarint(std::string &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

inline uint64_t
zigzag(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
        static_cast<uint64_t>(v >> 63);
}

inline int64_t
unzigzag(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

inline void
putSvarint(std::string &out, int64_t v)
{
    putVarint(out, zigzag(v));
}
/// @}

/**
 * Bounds-checked sequential decoder over an in-memory byte range.
 * Throws TraceError on overrun so a corrupt length field cannot walk
 * off the buffer.
 */
class ByteCursor
{
  public:
    ByteCursor(const char *data, size_t n) : p(data), end(data + n) {}

    size_t remaining() const { return static_cast<size_t>(end - p); }
    bool atEnd() const { return p == end; }

    const char *
    take(size_t n)
    {
        if (remaining() < n)
            throw TraceError("trace data truncated mid-record");
        const char *r = p;
        p += n;
        return r;
    }

    uint8_t
    u8()
    {
        return static_cast<uint8_t>(*take(1));
    }

    uint32_t
    u32()
    {
        const char *b = take(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(static_cast<uint8_t>(b[i]))
                 << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        const char *b = take(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(static_cast<uint8_t>(b[i]))
                 << (8 * i);
        return v;
    }

    uint64_t
    varint()
    {
        uint64_t v = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            uint8_t b = u8();
            v |= static_cast<uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80))
                return v;
        }
        throw TraceError("varint longer than 64 bits");
    }

    int64_t svarint() { return unzigzag(varint()); }

    std::string
    str()
    {
        uint64_t n = varint();
        if (n > remaining())
            throw TraceError("string length exceeds trace data");
        return std::string(take(static_cast<size_t>(n)),
                           static_cast<size_t>(n));
    }

  private:
    const char *p;
    const char *end;
};

inline void
putStr(std::string &out, const std::string &s)
{
    putVarint(out, s.size());
    out.append(s);
}

} // namespace tproc::replay

#endif // TPROC_REPLAY_TRACE_FORMAT_HH
