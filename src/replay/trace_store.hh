/**
 * @file
 * TraceStore: a directory of workload traces keyed by the capture
 * identity (workload, seed, scale, instruction limit). The sweep
 * harness's capture-once/replay-many mode: the first point to touch a
 * workload records its trace; every later point (any model, any
 * processor configuration) replays the file instead of regenerating
 * the workload and re-running the architectural execution.
 */

#ifndef TPROC_REPLAY_TRACE_STORE_HH
#define TPROC_REPLAY_TRACE_STORE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "replay/trace_file.hh"

namespace tproc::replay
{

class TraceStore
{
  public:
    explicit TraceStore(std::string dir_) : dir(std::move(dir_)) {}

    const std::string &directory() const { return dir; }

    /** Canonical file name for a capture identity. */
    std::string tracePath(const std::string &workload, uint64_t seed,
                          double scale, uint64_t max_insts) const;

    struct EnsureResult
    {
        std::shared_ptr<const TraceReader> reader;
        bool captured = false;  //!< this call recorded the trace
    };

    /**
     * Open a valid trace for the identity, capturing it first when the
     * file is missing, corrupt, or does not cover max_insts. Captures
     * are serialized process-wide and land atomically (temp + rename),
     * so concurrent sweep points record a workload exactly once and a
     * killed capture leaves no file behind. A capture verifies itself
     * and its reader goes straight into a process-wide cache, so a
     * trace this call records is never parsed. A file already on disk
     * is parsed (and so verified by re-emulation) once per cache
     * lifetime, however many points replay it: points that miss the
     * cache while it is being parsed wait for that one parse, and a
     * failed parse reaches each of them. Throws TraceError when the
     * trace cannot be produced.
     */
    EnsureResult ensure(const std::string &workload, uint64_t seed,
                        double scale, uint64_t max_insts);

    /** Drop the process-wide parsed-trace cache (tests). */
    static void dropCache();

    /**
     * Override the parsed-trace cache bound (tests; 0 restores the
     * default). The cache never evicts a reader some live replay still
     * holds — eviction skips pinned entries even when that leaves the
     * cache over capacity — so shrinking the bound is safe.
     */
    static void setCacheCapacityForTest(size_t capacity);

    /** True when path currently sits in the parsed-trace cache. */
    static bool isCachedForTest(const std::string &path);

    /**
     * True when path holds a verifiable trace matching the identity
     * and covering a max_insts-capped run; the failure reason lands in
     * why (when non-null) otherwise.
     */
    static bool validFor(const std::string &path,
                         const std::string &workload, uint64_t seed,
                         double scale, uint64_t max_insts,
                         std::string *why = nullptr);

  private:
    std::string dir;
};

/**
 * A fresh, uniquely named trace directory under the system temp
 * directory, holding one run's replay captures. The destructor removes
 * it and drops the parsed-trace cache. A capture's identity covers the
 * workload name, seed, scale and instruction cap, not the program the
 * current build generates for that name, so a store that outlived its
 * run could hand a later build stale captures. Throws
 * std::runtime_error when the directory cannot be created.
 */
class TempTraceDir
{
  public:
    explicit TempTraceDir(const std::string &stem);
    ~TempTraceDir();

    TempTraceDir(const TempTraceDir &) = delete;
    TempTraceDir &operator=(const TempTraceDir &) = delete;

    const std::string &path() const { return dir; }

  private:
    std::string dir;
};

} // namespace tproc::replay

#endif // TPROC_REPLAY_TRACE_STORE_HH
