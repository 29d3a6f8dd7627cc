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

/** A clock domain: frequency plus the cycle-to-tick conversion. */
class ClockDomain
{
  public:
    /** @param freq_hz clock frequency in hertz. */
    explicit ClockDomain(double freq_hz)
        : period_(static_cast<Tick>(1e12 / freq_hz + 0.5))
    {
        SPIM_ASSERT(period_ > 0, "clock period must be positive");
    }

    Tick
    cyclesToTicks(Cycle c) const
    {
        return static_cast<Tick>(c) * period_;
    }

  private:
    Tick period_;
};

} // namespace streampim

#endif // STREAMPIM_SIM_CLOCKED_HH_
