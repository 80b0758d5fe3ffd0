#include "host_probe.hh"

#include <atomic>
#include <cstdint>
#include <vector>

#include "spans.hh"

namespace perfbench
{

namespace
{

/** Kernel steps per probe (~3 ms). */
constexpr uint64_t probeIters = 400'000;

/** Nanoseconds per kernel step on the reference host (the 4-vCPU
 *  Xeon the benchmark was defined on, in its fast clock state). Only
 *  sets the unit of the normalized figures; comparisons between two
 *  builds measured on one host do not depend on it. */
constexpr double referenceNsPerIter = 8.0;

/** Keeps the kernel's result observable, so it is never elided. */
std::atomic<uint64_t> probeSink{0};

/** The kernel: @p iters steps; the result depends on every step. */
uint64_t
probeKernel(uint64_t iters)
{
    std::vector<uint32_t> table(1 << 16);
    for (size_t i = 0; i < table.size(); ++i)
        table[i] = static_cast<uint32_t>(i * 2654435761u);
    uint64_t x = 88172645463325252ull;
    uint64_t acc = 0;
    for (uint64_t i = 0; i < iters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint32_t v = table[x & 0xffff];
        if (v & 1)
            acc += v;
        else
            acc ^= v >> 3;
        table[(x >> 20) & 0xffff] += static_cast<uint32_t>(acc);
    }
    return acc;
}

} // anonymous namespace

double
probeHostSpeed()
{
    const int64_t t0 = nowNs();
    probeSink.store(probeKernel(probeIters), std::memory_order_relaxed);
    const double ns = static_cast<double>(nowNs() - t0);
    return referenceNsPerIter * static_cast<double>(probeIters) / ns;
}

} // namespace perfbench
