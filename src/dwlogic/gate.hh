/**
 * @file
 * Domain-wall logic gates.
 *
 * Following Luo et al. (Nature 2020) as adopted by StreamPIM Sec. III-A:
 * coupling magnetic metal and heavy metal integrates domain-wall
 * inverters into a nanowire; when domains shift across an inverter
 * they are logically inverted by the Dzyaloshinskii-Moriya
 * interaction (a NOT gate). Two inputs, one bias and one output
 * domain couple into a NAND or NOR gate depending on the bias
 * (Fig. 6). AND/OR are a NAND/NOR followed by an inverter on the
 * output branch. The adder and multiplier netlists use NAND and AND
 * only, so those are the two gate types modelled.
 *
 * The functional model evaluates boolean values; every evaluation
 * counts the gates traversed and the shift steps that push domains
 * through them, so higher-level components can report exact gate/
 * shift totals.
 */

#ifndef STREAMPIM_DWLOGIC_GATE_HH_
#define STREAMPIM_DWLOGIC_GATE_HH_

#include <cstdint>

namespace streampim
{

/** Gate flavors constructible from domain-wall inverters (Fig. 6). */
enum class DwGateType
{
    Nand,
    And, //!< NAND + output inverter
};

/** Counters shared by a tree of logic components. */
struct LogicCounters
{
    std::uint64_t gateOps = 0;    //!< domain passes through a gate
    std::uint64_t shiftSteps = 0; //!< single-domain shift steps
    std::uint64_t fanOuts = 0;    //!< fan-out duplication events
    std::uint64_t diodePasses = 0;

    void
    reset()
    {
        gateOps = 0;
        shiftSteps = 0;
        fanOuts = 0;
        diodePasses = 0;
    }

    constexpr LogicCounters &
    operator+=(const LogicCounters &o)
    {
        gateOps += o.gateOps;
        shiftSteps += o.shiftSteps;
        fanOuts += o.fanOuts;
        diodePasses += o.diodePasses;
        return *this;
    }

    /**
     * Fold in @p n repetitions of the closed-form delta @p d in one
     * commit — the batched-accounting primitive: a vector operation
     * accumulates its per-element delta in registers and commits a
     * single multiply-add per counter instead of per gate-word.
     * Exact by construction (unsigned 64-bit arithmetic).
     */
    constexpr LogicCounters &
    addScaled(const LogicCounters &d, std::uint64_t n)
    {
        gateOps += d.gateOps * n;
        shiftSteps += d.shiftSteps * n;
        fanOuts += d.fanOuts * n;
        diodePasses += d.diodePasses * n;
        return *this;
    }
};

/**
 * One domain-wall logic gate. Evaluation models a domain shifting
 * across the DMI coupling region: one shift step plus one gate op.
 */
class DwGate
{
  public:
    DwGate(DwGateType type, LogicCounters &counters)
        : type_(type), counters_(counters)
    {}

    DwGateType type() const { return type_; }

    /** Binary evaluation. */
    bool eval(bool a, bool b);

    /**
     * Pure truth table, no counting — used by tests as the oracle.
     */
    static bool truth(DwGateType type, bool a, bool b);

  private:
    DwGateType type_;
    LogicCounters &counters_;
};

/**
 * Fan-out point: a domain propagating through the branch point is
 * split into two identical domains (Sec. III-C, Fig. 9 step 2).
 */
class DwFanOut
{
  public:
    explicit DwFanOut(LogicCounters &counters) : counters_(counters) {}

    /** Split @p in into two copies. */
    struct Pair
    {
        bool first;
        bool second;
    };

    Pair split(bool in);

  private:
    LogicCounters &counters_;
};

/**
 * Domain-wall diode: passes domains in the forward direction only
 * while enabled; blocks everything when disabled (Luo et al. 2021).
 */
class DwDiode
{
  public:
    explicit DwDiode(LogicCounters &counters) : counters_(counters) {}

    void enable() { enabled_ = true; }
    void disable() { enabled_ = false; }
    bool enabled() const { return enabled_; }

    /**
     * Attempt to pass a domain forward.
     * @return true if the domain passed (diode enabled).
     */
    bool passForward(bool &bit_in_transit);

  private:
    LogicCounters &counters_;
    bool enabled_ = false;
};

} // namespace streampim

#endif // STREAMPIM_DWLOGIC_GATE_HH_
