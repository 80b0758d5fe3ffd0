/**
 * @file
 * Timing wrapper around an ArchSource: the seam the traced run uses to
 * time every architectural step (live Emulator or trace ReplaySource)
 * from outside the processor, through Processor's golden-source
 * constructor argument. A pure observer: it forwards every call
 * unchanged, so simulation statistics stay bit-identical.
 */

#ifndef PERFBENCH_TIMED_SOURCE_HH
#define PERFBENCH_TIMED_SOURCE_HH

#include <memory>

#include "emulator/arch_source.hh"
#include "spans.hh"

namespace perfbench
{

class TimedArchSource : public tproc::ArchSource
{
  public:
    /** @param agg receives one (count, time) sample per step(); it must
     *  outlive this source. */
    TimedArchSource(std::unique_ptr<tproc::ArchSource> inner_,
                    Aggregate &agg_)
        : inner(std::move(inner_)), agg(agg_)
    {}

    tproc::StepResult
    step() override
    {
        const int64_t t0 = nowNs();
        tproc::StepResult r = inner->step();
        agg.add(nowNs() - t0);
        return r;
    }

    bool halted() const override { return inner->halted(); }
    uint64_t instCount() const override { return inner->instCount(); }

  private:
    std::unique_ptr<tproc::ArchSource> inner;
    Aggregate &agg;
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_SOURCE_HH
