/**
 * @file
 * Shift-fault model for domain-wall nanowires.
 *
 * Racetrack shifts can over- or under-shift: the domain train
 * travels one position too far or stops one short (Sec. III-D,
 * citing the transverse-read literature). Fault probability
 * accumulates with the distance covered by a single current pulse,
 * which is why long unsegmented transfers are unreliable and why
 * the RM bus restricts every pulse to one segment length.
 *
 * The model is Bernoulli-per-domain-step: each single-position step
 * of a pulse independently faults with probability pStep; a pulse
 * faults if any of its steps fault. This reproduces the paper's
 * qualitative claim (fault rate bounded per pulse by the segment
 * size) and provides the fault-injection hooks the tests exercise.
 */

#ifndef STREAMPIM_RM_FAULT_HH_
#define STREAMPIM_RM_FAULT_HH_

#include <cmath>
#include <cstdint>

#include "common/log.hh"
#include "common/rng.hh"

namespace streampim
{

/** Outcome of one shift pulse under the fault model. */
enum class ShiftOutcome
{
    Exact,      //!< train landed where intended
    OverShift,  //!< one position too far
    UnderShift, //!< one position short
};

/** Bernoulli-per-step over/under-shift model. */
class ShiftFaultModel
{
  public:
    /**
     * @param p_step fault probability of one single-position step
     * @param over_fraction fraction of faults that are over-shifts
     */
    explicit ShiftFaultModel(double p_step = 4.5e-5,
                             double over_fraction = 0.5)
        : pStep_(p_step), overFraction_(over_fraction)
    {
        SPIM_ASSERT(p_step >= 0.0 && p_step < 1.0,
                    "step fault probability out of range");
        SPIM_ASSERT(over_fraction >= 0.0 && over_fraction <= 1.0,
                    "over-shift fraction out of range");
    }

    /** Probability that a pulse covering @p steps faults. */
    double
    pulseFaultProbability(unsigned steps) const
    {
        return 1.0 - std::pow(1.0 - pStep_, double(steps));
    }

    /**
     * Expected faults for a transfer of @p total_steps domain steps
     * executed in pulses of @p steps_per_pulse.
     */
    double
    expectedFaults(std::uint64_t total_steps,
                   unsigned steps_per_pulse) const
    {
        const double pulses = double(total_steps) /
                              double(steps_per_pulse);
        return pulses * pulseFaultProbability(steps_per_pulse);
    }

    /** Sample the outcome of one pulse of @p steps positions. */
    ShiftOutcome
    samplePulse(Rng &rng, unsigned steps) const
    {
        if (rng.uniform() >= pulseFaultProbability(steps))
            return ShiftOutcome::Exact;
        return rng.uniform() < overFraction_
            ? ShiftOutcome::OverShift
            : ShiftOutcome::UnderShift;
    }

  private:
    double pStep_;
    double overFraction_;
};

} // namespace streampim

#endif // STREAMPIM_RM_FAULT_HH_
