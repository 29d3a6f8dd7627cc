/**
 * @file
 * Domain-wall adders: the 1-bit NAND full adder of Fig. 6, the
 * ripple-carry scalar adder built from it (Sec. III-C), and the
 * multi-operand adder tree used to sum partial products.
 */

#ifndef STREAMPIM_DWLOGIC_ADDER_HH_
#define STREAMPIM_DWLOGIC_ADDER_HH_

#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "dwlogic/gate.hh"

namespace streampim
{

/**
 * One-bit full adder made of nine domain-wall NAND gates, the
 * construction depicted in Fig. 6.
 */
class DwFullAdder
{
  public:
    explicit DwFullAdder(LogicCounters &counters)
        : counters_(counters)
    {}

    struct Result
    {
        bool sum;
        bool carry;
    };

    /** Evaluate the adder on one bit triple. */
    Result add(bool a, bool b, bool cin);

    /** NAND gates in the Fig. 6 construction. */
    static constexpr unsigned kGatesPerBit = 9;

  private:
    LogicCounters &counters_;
};

/**
 * Ripple-carry adder of configurable width built from DwFullAdder
 * stages; the RM processor's scalar adder (Sec. III-C).
 */
class DwRippleCarryAdder
{
  public:
    DwRippleCarryAdder(unsigned width, LogicCounters &counters);

    unsigned width() const { return width_; }

    struct Result
    {
        BitVec sum;  //!< width() bits
        bool carry;  //!< carry out of the MSB
    };

    /**
     * Add two width()-bit vectors plus carry-in. Inputs narrower than
     * the width are zero-extended; wider inputs are rejected.
     */
    Result add(const BitVec &a, const BitVec &b, bool cin = false);

    /** Convenience: integer-in, integer-out (width <= 64). */
    std::uint64_t addWords(std::uint64_t a, std::uint64_t b);

    /**
     * Closed-form counter delta of one add(): the netlist evaluates
     * @p width full adders of kGatesPerBit NANDs, one gate op and
     * one shift step each. The single source of truth for the
     * processor-level batched accounting (pinned against the
     * netlist by the fast-path equivalence tests).
     */
    static constexpr LogicCounters
    addDelta(unsigned width)
    {
        const std::uint64_t g =
            std::uint64_t(DwFullAdder::kGatesPerBit) * width;
        return {g, g, 0, 0};
    }

  private:
    unsigned width_;
    LogicCounters &counters_;
    DwFullAdder fa_;
};

/**
 * Adder tree summing @p operands values of @p operand_width bits into
 * a single result (Sec. III-C: "we implement the multi-operand adder
 * as an adder tree by leveraging the aforementioned RM full-adder").
 *
 * The tree has ceil(log2(operands)) levels of ripple-carry adders;
 * level l operates at operand_width + l bits so no precision is lost.
 */
class DwAdderTree
{
  public:
    DwAdderTree(unsigned operands, unsigned operand_width,
                LogicCounters &counters);

    unsigned operands() const { return operands_; }

    /** Output width: operand width + tree depth. */
    unsigned resultWidth() const;

    /** Tree depth in adder levels. */
    unsigned levels() const;

    /**
     * Sum the given operand vector (must contain exactly operands()
     * entries, each at most the operand width).
     */
    BitVec sum(const std::vector<BitVec> &values);

    /** Convenience for word inputs. */
    std::uint64_t sumWords(const std::vector<std::uint64_t> &values);

    /**
     * Closed-form counter delta of one sum(): the pairwise
     * reduction runs ceil(size/2) ripple-carry adds per level, at a
     * width that grows one bit per level (odd leftovers pass
     * through uncounted, exactly as sum() forwards them).
     */
    static constexpr LogicCounters
    sumDelta(unsigned operands, unsigned operand_width)
    {
        LogicCounters d{0, 0, 0, 0};
        unsigned count = operands;
        unsigned width = operand_width;
        while (count > 1) {
            width += 1;
            const unsigned adds = count / 2;
            const LogicCounters a = DwRippleCarryAdder::addDelta(width);
            d.addScaled(a, adds);
            count = (count + 1) / 2;
        }
        return d;
    }

  private:
    unsigned operands_;
    unsigned operandWidth_;
    LogicCounters &counters_;
};

} // namespace streampim

#endif // STREAMPIM_DWLOGIC_ADDER_HH_
