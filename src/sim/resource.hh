/**
 * @file
 * Busy-until model of an exclusive hardware resource.
 *
 * Much of the timed simulation schedules work on exclusive hardware
 * resources (a subarray's shift domain, an RM processor pipeline slot,
 * a bank's RW port, a bus lane). TickResource captures the canonical
 * "next free time" pattern: a request arriving at tick t on a resource
 * free at tick f starts at max(t, f) and occupies it for its duration.
 * This yields exactly the same schedule a cycle-stepped model of a
 * non-preemptive FIFO resource would, at event cost instead of
 * per-cycle cost.
 */

#ifndef STREAMPIM_SIM_RESOURCE_HH_
#define STREAMPIM_SIM_RESOURCE_HH_

#include <algorithm>

#include "common/types.hh"

namespace streampim
{

/** Time span occupied by a request on a resource. */
struct TickSpan
{
    Tick start;
    Tick end;

    Tick duration() const { return end - start; }
};

/** An exclusive, non-preemptive FIFO resource. */
class TickResource
{
  public:
    TickResource() = default;

    /**
     * Occupy the resource for @p duration starting no earlier than
     * @p earliest. @return the actual span granted.
     */
    TickSpan
    acquire(Tick earliest, Tick duration)
    {
        Tick start = std::max(earliest, freeAt_);
        freeAt_ = start + duration;
        busyTicks_ += duration;
        return {start, freeAt_};
    }

    /** Total ticks this resource has been occupied. */
    Tick busyTicks() const { return busyTicks_; }

    void
    reset()
    {
        freeAt_ = 0;
        busyTicks_ = 0;
    }

  private:
    Tick freeAt_ = 0;
    Tick busyTicks_ = 0;
};

} // namespace streampim

#endif // STREAMPIM_SIM_RESOURCE_HH_
