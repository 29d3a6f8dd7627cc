/**
 * @file
 * The Duplicator (Sec. III-C, Fig. 9).
 *
 * Shift operations move data along a nanowire but cannot copy it; the
 * duplicator combines the Fan-Out mechanism (a domain splits into two
 * at a branch point) with a Domain-Wall Diode (one branch only passes
 * domains back when enabled) to implement non-destructive data
 * duplication in four steps:
 *
 *   1. A shift propagates the data toward the two branch nanowires.
 *   2. The domain is duplicated at the fan-out point.
 *   3. One replica returns to the original position through the
 *      (now enabled) diode to avoid conflicts.
 *   4. Data is back at the origin, ready to be duplicated again; the
 *      other replica moves forward to the next pipeline stage.
 *
 * One full duplication cycle produces one replica of an n-bit word
 * (the duplicator is n parallel fan-out wires); producing the n
 * replicas a scalar multiplication needs costs n cycles per
 * duplicator, which is why the processor provisions several
 * duplicators (2 in Table III).
 */

#ifndef STREAMPIM_DWLOGIC_DUPLICATOR_HH_
#define STREAMPIM_DWLOGIC_DUPLICATOR_HH_

#include <optional>

#include "common/bitvec.hh"
#include "dwlogic/gate.hh"

namespace streampim
{

/** Explicit duplication phases matching Fig. 9. */
enum class DuplicatorStep
{
    Idle,          //!< no word loaded
    Propagate,     //!< step 1: shifting toward the branch point
    Split,         //!< step 2: fan-out duplication happened
    ReturnReplica, //!< step 3: replica returning through the diode
    Ready,         //!< step 4: origin restored, output available
};

/**
 * Bit-accurate duplicator. Drive it with step() to walk through the
 * four phases, or call duplicate() to run a whole cycle.
 */
class Duplicator
{
  public:
    Duplicator(unsigned width, LogicCounters &counters);

    unsigned width() const { return width_; }
    DuplicatorStep phase() const { return phase_; }

    /** Load a word into the origin position; requires Idle. */
    void load(const BitVec &word);

    /**
     * Advance one phase. Panics when Idle (nothing to do).
     * After the Ready phase the output replica is retrievable once
     * and the duplicator returns to Ready with the origin intact,
     * allowing repeated duplication of the same word.
     */
    void step();

    /** Consume the forward replica. */
    BitVec takeOutput();

    /** The word currently held at the origin (survives duplication). */
    const BitVec &origin() const;

    /** Run one full 4-step duplication and return the replica. */
    BitVec duplicate();

    /** Unload the origin word, returning the duplicator to Idle. */
    BitVec unload();

    /** Completed duplication cycles (for stats/tests). */
    std::uint64_t cycles() const { return cycles_; }

    /**
     * Closed-form counter delta of one duplicate(): the four phases
     * shift the word four times (origin to branch point, both split
     * branches, replica return), fan out every bit once and pass
     * every returning bit through the diode.
     */
    static constexpr LogicCounters
    duplicateDelta(unsigned width)
    {
        return {0, std::uint64_t(4) * width, width, width};
    }

    /** Shift steps per duplication cycle of one word. */
    static constexpr unsigned kStepsPerCycle = 4;

  private:
    unsigned width_;
    LogicCounters &counters_;
    DwFanOut fanOut_;
    DwDiode diode_;

    DuplicatorStep phase_ = DuplicatorStep::Idle;
    std::optional<BitVec> origin_;
    std::optional<BitVec> inFlight_;  //!< replica moving backward
    std::optional<BitVec> output_;    //!< replica moving forward
    std::uint64_t cycles_ = 0;
};

} // namespace streampim

#endif // STREAMPIM_DWLOGIC_DUPLICATOR_HH_
