#include "replay/trace_store.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <mutex>
#include <unordered_map>

#include "common/hires_timer.hh"
#include "common/logging.hh"
#include "replay/capture.hh"

namespace tproc::replay
{

namespace
{

/**
 * Process-wide cache of parsed traces keyed by path. Readers are
 * immutable, so concurrent sweep points share one parsed instance and
 * a 16-point sweep over 8 workloads parses 8 files, not 16. Bounded
 * (oldest-first) so a long-lived process sweeping many workloads
 * cannot hold every trace in memory forever — but eviction never
 * drops a reader some live replay still references (use_count > 1):
 * under SweepEngine parallel replay, evicting a pinned trace would
 * force every concurrent point on it to re-parse (and re-verify by
 * emulation) the same file, defeating the parse-once contract.
 * When every entry is pinned the cache temporarily exceeds its bound
 * rather than evict live work.
 */
constexpr size_t defaultCacheCapacity = 32;

struct ReaderCache
{
    std::mutex mutex;
    size_t capacity = defaultCacheCapacity;
    std::unordered_map<std::string, std::shared_ptr<const TraceReader>>
        byPath;
    std::deque<std::string> order;      //!< insertion order for eviction

    void
    put(const std::string &path, std::shared_ptr<const TraceReader> r)
    {
        if (byPath.count(path) == 0)
            order.push_back(path);
        byPath[path] = std::move(r);
        // Evict oldest-first, skipping pinned entries. use_count is
        // stable here: every cache-held shared_ptr is only copied
        // under this->mutex, so an unpinned entry cannot gain a
        // reference while we hold the lock.
        size_t scan = 0;
        while (byPath.size() > capacity && scan < order.size()) {
            const std::string victim = order[scan];
            auto it = byPath.find(victim);
            if (it != byPath.end() && it->second.use_count() > 1) {
                ++scan;     // pinned by a live replay; try the next
                continue;
            }
            if (it != byPath.end())
                byPath.erase(it);
            order.erase(order.begin() +
                        static_cast<std::ptrdiff_t>(scan));
        }
    }

    void
    drop(const std::string &path)
    {
        // Keep order in sync with byPath: a stale order entry would
        // later evict a live reader for the same re-inserted path.
        if (byPath.erase(path)) {
            auto it = std::find(order.begin(), order.end(), path);
            if (it != order.end())
                order.erase(it);
        }
    }

    std::shared_ptr<const TraceReader>
    get(const std::string &path)
    {
        auto it = byPath.find(path);
        return it == byPath.end() ? nullptr : it->second;
    }
};

ReaderCache &
readerCache()
{
    static ReaderCache c;
    return c;
}

/** One capture at a time, across every TraceStore in the process. */
std::mutex &
storeMutex()
{
    static std::mutex m;
    return m;
}

std::string
fmtScale(double scale)
{
    // The file name must key the exact double the identity check in
    // acceptable() compares, or two nearby scales would share a path
    // and perpetually invalidate each other's trace. %g is used when
    // it round-trips (the common 1, 0.25, ... cases); anything else
    // falls back to the raw bit pattern.
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%g", scale);
    if (std::strtod(buf, nullptr) == scale)
        return buf;
    uint64_t bits;
    std::memcpy(&bits, &scale, sizeof(bits));
    std::snprintf(buf, sizeof(buf), "b%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

/** True when the parsed trace matches the requested identity and
 *  covers a max_insts-capped run; the reason lands in why otherwise. */
bool
acceptable(const TraceInfo &info, const std::string &workload,
           uint64_t seed, double scale, uint64_t max_insts,
           std::string *why)
{
    const TraceMeta &m = info.meta;
    if (m.workload != workload || m.seed != seed || m.scale != scale) {
        if (why) {
            *why = "trace identity mismatch (holds " + m.workload +
                " seed " + std::to_string(m.seed) + ")";
        }
        return false;
    }
    if (!info.cleanHalt && info.totalSteps < captureCapFor(max_insts)) {
        if (why) {
            *why = "trace too short for a " +
                std::to_string(max_insts) + "-instruction run (" +
                std::to_string(info.totalSteps) + " steps, no HALT)";
        }
        return false;
    }
    return true;
}

/**
 * Cached or freshly parsed reader accepted for the identity, or null.
 * The TraceReader constructor checks every chunk checksum and END's
 * digest and re-emulates the program against the digest chain, so no
 * separate verify walk is needed here.
 */
std::shared_ptr<const TraceReader>
openFor(const std::string &path, const std::string &workload,
        uint64_t seed, double scale, uint64_t max_insts,
        std::string *why)
{
    auto &cache = readerCache();
    std::shared_ptr<const TraceReader> reader;
    {
        std::lock_guard<std::mutex> lock(cache.mutex);
        reader = cache.get(path);
    }
    if (!reader) {
        try {
            auto parse_phase = PhaseTimers::global().scope("parse");
            reader = std::make_shared<const TraceReader>(path);
        } catch (const TraceError &e) {
            if (why)
                *why = e.what();
            return nullptr;
        }
        std::lock_guard<std::mutex> lock(cache.mutex);
        cache.put(path, reader);
    }
    if (!acceptable(reader->info(), workload, seed, scale, max_insts,
                    why)) {
        return nullptr;
    }
    return reader;
}

} // anonymous namespace

std::string
TraceStore::tracePath(const std::string &workload, uint64_t seed,
                      double scale, uint64_t max_insts) const
{
    std::string name = workload + "-s" + std::to_string(seed) + "-x" +
        fmtScale(scale) + "-i" +
        (max_insts == UINT64_MAX ? std::string("all")
                                 : std::to_string(max_insts)) +
        ".tpt";
    return dir + "/" + name;
}

bool
TraceStore::validFor(const std::string &path, const std::string &workload,
                     uint64_t seed, double scale, uint64_t max_insts,
                     std::string *why)
{
    std::string error;
    TraceInfo info;
    if (!TraceReader::verify(path, &error, &info)) {
        if (why)
            *why = error;
        return false;
    }
    return acceptable(info, workload, seed, scale, max_insts, why);
}

void
TraceStore::dropCache()
{
    auto &cache = readerCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    cache.byPath.clear();
    cache.order.clear();
}

void
TraceStore::setCacheCapacityForTest(size_t capacity)
{
    auto &cache = readerCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    cache.capacity = capacity ? capacity : defaultCacheCapacity;
}

bool
TraceStore::isCachedForTest(const std::string &path)
{
    auto &cache = readerCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    return cache.byPath.count(path) != 0;
}

TempTraceDir::TempTraceDir(const std::string &stem)
    : dir((std::filesystem::temp_directory_path() / (stem + ".XXXXXX"))
              .string())
{
    if (!::mkdtemp(dir.data())) {
        throw TraceError("cannot create trace directory " + dir + ": " +
                         std::strerror(errno));
    }
}

TempTraceDir::~TempTraceDir()
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    // The cache is keyed by path; mkdtemp may hand a later run the
    // same name.
    TraceStore::dropCache();
}

TraceStore::EnsureResult
TraceStore::ensure(const std::string &workload, uint64_t seed,
                   double scale, uint64_t max_insts)
{
    const std::string path = tracePath(workload, seed, scale, max_insts);

    EnsureResult r;
    std::string why;
    r.reader = openFor(path, workload, seed, scale, max_insts, &why);
    if (r.reader)
        return r;

    std::lock_guard<std::mutex> lock(storeMutex());
    // Another thread may have captured (and cached) the trace while we
    // waited for the lock: retry through the cache first, and only
    // drop the entry when it is genuinely unacceptable, so contending
    // threads do not serially re-parse a freshly captured file.
    r.reader = openFor(path, workload, seed, scale, max_insts, &why);
    if (r.reader)
        return r;
    {
        auto &cache = readerCache();
        std::lock_guard<std::mutex> cacheLock(cache.mutex);
        cache.drop(path);
    }

    if (std::filesystem::exists(path)) {
        warn("trace store: recapturing %s: %s", path.c_str(),
             why.c_str());
        std::remove(path.c_str());
    }
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    captureWorkloadTrace(workload, seed, scale, max_insts, path);
    r.captured = true;
    r.reader = openFor(path, workload, seed, scale, max_insts, &why);
    if (!r.reader) {
        throw TraceError("freshly captured trace " + path +
                         " failed validation: " + why);
    }
    return r;
}

} // namespace tproc::replay
