/**
 * @file
 * Clock domain of a fixed-frequency clock.
 *
 * The RM core clock of the paper is 100 MHz (Table III); the timed
 * executor converts between its cycles and ticks with a ClockDomain.
 */

#ifndef STREAMPIM_SIM_CLOCKED_HH_
#define STREAMPIM_SIM_CLOCKED_HH_

#include "common/log.hh"
#include "common/types.hh"

namespace streampim
{

/** A clock domain: frequency plus tick conversion helpers. */
class ClockDomain
{
  public:
    /** @param freq_hz clock frequency in hertz. */
    explicit ClockDomain(double freq_hz)
        : period_(static_cast<Tick>(1e12 / freq_hz + 0.5))
    {
        SPIM_ASSERT(period_ > 0, "clock period must be positive");
    }

    Tick period() const { return period_; }

    Tick
    cyclesToTicks(Cycle c) const
    {
        return static_cast<Tick>(c) * period_;
    }

    Cycle
    ticksToCycles(Tick t) const
    {
        return t / period_;
    }

    /** Cycles needed to cover @p t ticks, rounded up. */
    Cycle
    ticksToCyclesCeil(Tick t) const
    {
        return (t + period_ - 1) / period_;
    }

    /** First clock edge at or after @p now. */
    Tick
    edgeAtOrAfter(Tick now) const
    {
        return ((now + period_ - 1) / period_) * period_;
    }

  private:
    Tick period_;
};

} // namespace streampim

#endif // STREAMPIM_SIM_CLOCKED_HH_
