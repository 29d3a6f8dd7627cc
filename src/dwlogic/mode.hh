/**
 * @file
 * The two-level functional model switch.
 *
 * Each layer of the functional datapath has one fast path and one
 * bit-serial oracle:
 *
 *  - the dwlogic units (adders, multiplier, duplicator, circle
 *    adder) are the oracle only: NAND-by-NAND evaluation of the
 *    domain-wall constructions of Figs. 6/8-10, charging
 *    LogicCounters per gate traversal. Their constexpr *Delta
 *    functions are the closed-form counts of one netlist run;
 *  - the RM processor's fast path reduces a vector op to an
 *    integer recurrence charged through those deltas; its oracle
 *    drives the units element by element;
 *  - the mat moves fault-free bytes a word at a time; its oracle
 *    shifts and senses every domain;
 *  - the RM bus resolves a fault-free transfer in closed form; its
 *    oracle is the per-segment, per-pulse sweep (also the fallible
 *    path under fault injection).
 *
 * The fast paths are the default; setting STREAMPIM_STRICT_GATES=1
 * in the environment (or calling setStrictGates(true)) runs the
 * oracles everywhere. Values, counters, cycles and energy are
 * identical in both modes — strict mode exists for
 * cross-validation, debugging new netlist constructions, and
 * auditing the closed-form charges.
 */

#ifndef STREAMPIM_DWLOGIC_MODE_HH_
#define STREAMPIM_DWLOGIC_MODE_HH_

namespace streampim
{

/** True when every layer must run its bit-serial oracle. */
bool strictGates();

/** Override the mode at runtime (tests, cross-validation). */
void setStrictGates(bool strict);

/** RAII mode override for equivalence tests. */
class ScopedStrictGates
{
  public:
    explicit ScopedStrictGates(bool strict) : prev_(strictGates())
    {
        setStrictGates(strict);
    }

    ~ScopedStrictGates() { setStrictGates(prev_); }

    ScopedStrictGates(const ScopedStrictGates &) = delete;
    ScopedStrictGates &operator=(const ScopedStrictGates &) = delete;

  private:
    bool prev_;
};

} // namespace streampim

#endif // STREAMPIM_DWLOGIC_MODE_HH_
