#include "dwlogic/adder.hh"

#include <bit>

#include "common/log.hh"

namespace streampim
{

DwFullAdder::Result
DwFullAdder::add(bool a, bool b, bool cin)
{
    // Nine-NAND full adder (Fig. 6). Every intermediate value is a
    // domain shifting through a NAND coupling region.
    DwGate nand(DwGateType::Nand, counters_);
    bool n1 = nand.eval(a, b);
    bool n2 = nand.eval(a, n1);
    bool n3 = nand.eval(b, n1);
    bool axb = nand.eval(n2, n3);      // a XOR b
    bool n5 = nand.eval(axb, cin);
    bool n6 = nand.eval(axb, n5);
    bool n7 = nand.eval(cin, n5);
    bool sum = nand.eval(n6, n7);      // a XOR b XOR cin
    bool carry = nand.eval(n5, n1);    // majority(a, b, cin)
    return {sum, carry};
}

DwRippleCarryAdder::DwRippleCarryAdder(unsigned width,
                                       LogicCounters &counters)
    : width_(width), counters_(counters), fa_(counters)
{
    SPIM_ASSERT(width_ > 0, "zero-width adder");
}

DwRippleCarryAdder::Result
DwRippleCarryAdder::add(const BitVec &a, const BitVec &b, bool cin)
{
    SPIM_ASSERT(a.size() <= width_,
                "operand a wider than adder: ", a.size(), " > ", width_);
    SPIM_ASSERT(b.size() <= width_,
                "operand b wider than adder: ", b.size(), " > ", width_);

    BitVec sum(width_);
    bool carry = cin;
    for (unsigned i = 0; i < width_; ++i) {
        bool abit = i < a.size() && a.get(i);
        bool bbit = i < b.size() && b.get(i);
        auto r = fa_.add(abit, bbit, carry);
        sum.set(i, r.sum);
        carry = r.carry;
    }
    return {sum, carry};
}

DwAdderTree::DwAdderTree(unsigned operands, unsigned operand_width,
                         LogicCounters &counters)
    : operands_(operands), operandWidth_(operand_width),
      counters_(counters)
{
    SPIM_ASSERT(operands_ >= 1, "adder tree needs operands");
    SPIM_ASSERT(operandWidth_ > 0, "zero-width operands");
}

unsigned
DwAdderTree::levels() const
{
    return operands_ <= 1
        ? 0
        : unsigned(std::bit_width(operands_ - 1));
}

unsigned
DwAdderTree::resultWidth() const
{
    return operandWidth_ + levels();
}

BitVec
DwAdderTree::sum(const std::vector<BitVec> &values)
{
    SPIM_ASSERT(values.size() == operands_,
                "adder tree fed ", values.size(), " operands, expected ",
                operands_);
    for (const auto &v : values)
        SPIM_ASSERT(v.size() <= operandWidth_,
                    "operand wider than tree input");

    // Pairwise reduction; widths grow by one bit per level so carries
    // are never dropped.
    std::vector<BitVec> level = values;
    unsigned width = operandWidth_;
    while (level.size() > 1) {
        width += 1;
        std::vector<BitVec> next;
        next.reserve((level.size() + 1) / 2);
        DwRippleCarryAdder rca(width, counters_);
        for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
            auto r = rca.add(level[i], level[i + 1]);
            // Width grew by one, so the carry out of the previous
            // width lands inside the new MSB; carry out of the new
            // width is impossible.
            SPIM_ASSERT(!r.carry, "adder tree lost a carry");
            next.push_back(r.sum);
        }
        if (level.size() % 2 == 1) {
            BitVec odd = level.back();
            odd.resize(width);
            next.push_back(odd);
        }
        level = std::move(next);
    }
    BitVec result = level.front();
    result.resize(resultWidth());
    return result;
}

} // namespace streampim
