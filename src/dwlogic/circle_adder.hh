/**
 * @file
 * The Circle Adder (Sec. III-C, Fig. 10).
 *
 * A vector dot product must sum up a stream of scalar-multiplication
 * products. The circle adder consists of an n-bit full adder,
 * customized nanowires forming a circle, and a domain-wall diode.
 * Each accumulation runs four steps:
 *
 *   1. The full adder takes the incoming product d1 and the current
 *      accumulated result s1 and produces s2.
 *   2. s2 shifts across the domain-wall diode.
 *   3. s2 shifts back to the operand position via the circle-form
 *      nanowire, guided by the diode.
 *   4. The next product d2 arrives at the operand position.
 *
 * The same hardware executes plain scalar additions by shifting the
 * operands across the full adder without circulating the result
 * (Sec. III-C: "We multiplex the circle adder to execute both
 * addition and dot product").
 */

#ifndef STREAMPIM_DWLOGIC_CIRCLE_ADDER_HH_
#define STREAMPIM_DWLOGIC_CIRCLE_ADDER_HH_

#include <cstdint>

#include "common/bitvec.hh"
#include "dwlogic/adder.hh"
#include "dwlogic/gate.hh"

namespace streampim
{

/** Accumulation phases matching Fig. 10. */
enum class CircleAdderStep
{
    AwaitOperand, //!< waiting for the next product at the operand slot
    Added,        //!< step 1 done: s2 produced by the full adder
    DiodePassed,  //!< step 2 done: s2 moved across the diode
    Circulated,   //!< step 3 done: s2 back at the accumulator slot
};

/** Bit-accurate circle adder with a configurable accumulator width. */
class CircleAdder
{
  public:
    CircleAdder(unsigned width, LogicCounters &counters);

    unsigned width() const { return width_; }
    CircleAdderStep phase() const { return phase_; }

    /** Current accumulated value (width() bits). */
    const BitVec &accumulator() const { return acc_; }
    std::uint64_t accumulatorWord() const { return acc_.toWord(); }

    /** Zero the accumulator (start of a new dot product). */
    void clear();

    /** Place the next product in the operand slot; requires
     * AwaitOperand phase. Narrow inputs are zero-extended. */
    void loadOperand(const BitVec &product);

    /** Advance one of the four phases. */
    void step();

    /** Run one full accumulation of @p product (4 steps). */
    void accumulate(const BitVec &product);

    /**
     * Scalar-addition mode: both operands stream across the full
     * adder and the sum leaves the circle immediately (no
     * circulation). Does not disturb the accumulator.
     */
    BitVec addScalars(const BitVec &a, const BitVec &b);

    /** Completed accumulations (for stats/tests). */
    std::uint64_t accumulations() const { return accumulations_; }

    /** True if an addition overflowed the accumulator width. */
    bool overflowed() const { return overflowed_; }

    /**
     * Closed-form counter delta of one accumulate(): the full add,
     * the diode traversal (one pass + one shift per bit) and the
     * circulation back to the accumulator slot (one shift per bit).
     */
    static constexpr LogicCounters
    accumulateDelta(unsigned width)
    {
        LogicCounters d = DwRippleCarryAdder::addDelta(width);
        d += {0, std::uint64_t(2) * width, 0, width};
        return d;
    }

    /** Closed-form counter delta of one addScalars(): the full add
     * plus the width shift steps leaving the circle. */
    static constexpr LogicCounters
    addScalarsDelta(unsigned width)
    {
        LogicCounters d = DwRippleCarryAdder::addDelta(width);
        d += {0, width, 0, 0};
        return d;
    }

    /**
     * Install the result of a batched accumulation run computed in
     * closed form by the processor fast path: the accumulator takes
     * @p acc (width() bits), @p accumulations more accumulations are
     * recorded, and @p overflowed folds into the sticky overflow
     * flag. Keeps this functional unit coherent with the netlist
     * across mode switches — a strict-mode accumulation after an
     * installed fast-path run continues from identical state.
     */
    void install(std::uint64_t acc, std::uint64_t accumulations,
                 bool overflowed);

  private:
    unsigned width_;
    LogicCounters &counters_;
    DwRippleCarryAdder adder_;
    DwDiode diode_;

    CircleAdderStep phase_ = CircleAdderStep::AwaitOperand;
    bool operandLoaded_ = false;
    BitVec acc_;
    BitVec operand_;
    BitVec pending_; //!< s2 while it travels around the circle
    std::uint64_t accumulations_ = 0;
    bool overflowed_ = false;
};

} // namespace streampim

#endif // STREAMPIM_DWLOGIC_CIRCLE_ADDER_HH_
