/**
 * @file
 * High-resolution (steady-clock) wall timers and the named phase-timer
 * registry behind the `phases` block of tproc-metrics-v1 documents.
 *
 * Phase seconds are *timing* facts: host- and load-dependent, never
 * part of any identity or golden comparison (a metrics document keeps
 * them in its `phases` block, apart from the deterministic series —
 * see docs/metrics.md). The registry exists purely for operational
 * attribution: where did this sweep's wall clock go — capture, parse,
 * simulate, merge, or the sampled cycle loop?
 */

#ifndef TPROC_COMMON_HIRES_TIMER_HH
#define TPROC_COMMON_HIRES_TIMER_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace tproc
{

/** A steady-clock stopwatch; seconds() is monotonically non-decreasing
 *  between restarts (steady_clock never goes backwards). */
class HiresTimer
{
  public:
    HiresTimer() : t0(std::chrono::steady_clock::now()) {}

    void restart() { t0 = std::chrono::steady_clock::now(); }

    /** Seconds elapsed since construction or the last restart(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point t0;
};

/** One aggregated phase: total wall seconds across `count` entries. */
struct PhaseStat
{
    std::string name;
    double seconds = 0.0;
    uint64_t count = 0;
};

/**
 * Insertion-ordered, thread-safe accumulator of named phase timings.
 * Components bracket their coarse operations with scope() (RAII) or
 * fold pre-accumulated seconds in with add() — the hot cycle loop does
 * the latter so the per-cycle path never touches the registry mutex.
 *
 * global() is the process-wide instance the telemetry exporters
 * snapshot; tests use private instances. Phase timing must never feed
 * back into simulation behaviour: readers only observe it after the
 * fact, so statistics stay bit-identical whether or not anything is
 * being timed.
 */
class PhaseTimers
{
  public:
    /** Fold `seconds` (covering `count` occurrences) into phase
     *  `name`, creating it on first use. Thread-safe. */
    void add(std::string_view name, double seconds, uint64_t count = 1);

    /** RAII bracket: adds the scope's lifetime to its phase. */
    class Scope
    {
      public:
        Scope(PhaseTimers &timers_, std::string_view name_)
            : timers(&timers_), name(name_)
        {
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        ~Scope()
        {
            if (timers)
                timers->add(name, timer.seconds());
        }

        /** Seconds elapsed so far inside this scope. */
        double seconds() const { return timer.seconds(); }

      private:
        PhaseTimers *timers;
        std::string name;
        HiresTimer timer;
    };

    Scope scope(std::string_view name) { return Scope(*this, name); }

    /** All phases in first-use order (a consistent copy). */
    std::vector<PhaseStat> snapshot() const;

    /** Drop every phase (tests; the global registry is append-only in
     *  production use). */
    void reset();

    /** The process-wide registry the telemetry exporters read. */
    static PhaseTimers &global();

    /**
     * after - before, phase by phase: the phases (and seconds/counts)
     * accrued between two snapshot() calls. Phases absent from
     * `before` are taken whole; negative deltas clamp to zero.
     */
    static std::vector<PhaseStat>
    diff(const std::vector<PhaseStat> &after,
         const std::vector<PhaseStat> &before);

  private:
    mutable std::mutex mu;
    std::vector<PhaseStat> order;
    std::unordered_map<std::string, size_t> index;
};

} // namespace tproc

#endif // TPROC_COMMON_HIRES_TIMER_HH
