/**
 * @file
 * Unit and property tests for the domain-wall adders.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dwlogic/adder.hh"

namespace streampim
{
namespace
{

/** One netlist add of two words; the carry lands above the sum. */
std::uint64_t
netlistAdd(DwRippleCarryAdder &rca, std::uint64_t a, std::uint64_t b)
{
    const unsigned w = rca.width();
    auto r = rca.add(BitVec::fromWord(a, w), BitVec::fromWord(b, w));
    return r.sum.toWord() | (std::uint64_t(r.carry) << w);
}

/** One netlist sum of @p width-bit words. */
std::uint64_t
netlistSum(DwAdderTree &tree, unsigned width,
           const std::vector<std::uint64_t> &values)
{
    std::vector<BitVec> vecs;
    for (auto v : values)
        vecs.push_back(BitVec::fromWord(v, width));
    return tree.sum(vecs).toWord();
}

TEST(DwFullAdder, TruthTable)
{
    LogicCounters c;
    DwFullAdder fa(c);
    for (int a = 0; a <= 1; ++a) {
        for (int b = 0; b <= 1; ++b) {
            for (int cin = 0; cin <= 1; ++cin) {
                auto r = fa.add(a, b, cin);
                int expect = a + b + cin;
                EXPECT_EQ(int(r.sum), expect & 1)
                    << a << "+" << b << "+" << cin;
                EXPECT_EQ(int(r.carry), expect >> 1)
                    << a << "+" << b << "+" << cin;
            }
        }
    }
}

TEST(DwFullAdder, UsesNineNandGatesPerBit)
{
    LogicCounters c;
    DwFullAdder fa(c);
    fa.add(true, false, true);
    EXPECT_EQ(c.gateOps, DwFullAdder::kGatesPerBit);
}

TEST(DwRippleCarryAdder, SmallSums)
{
    LogicCounters c;
    DwRippleCarryAdder rca(8, c);
    EXPECT_EQ(netlistAdd(rca, 0, 0), 0u);
    EXPECT_EQ(netlistAdd(rca, 1, 1), 2u);
    EXPECT_EQ(netlistAdd(rca, 100, 155), 255u);
    EXPECT_EQ(netlistAdd(rca, 200, 100), 300u); // carry into bit 8
}

TEST(DwRippleCarryAdder, CarryOutIsExposed)
{
    LogicCounters c;
    DwRippleCarryAdder rca(8, c);
    auto r = rca.add(BitVec::fromWord(0xFF, 8), BitVec::fromWord(1, 8));
    EXPECT_EQ(r.sum.toWord(), 0u);
    EXPECT_TRUE(r.carry);
}

TEST(DwRippleCarryAdder, CarryInWorks)
{
    LogicCounters c;
    DwRippleCarryAdder rca(8, c);
    auto r = rca.add(BitVec::fromWord(10, 8), BitVec::fromWord(20, 8),
                     true);
    EXPECT_EQ(r.sum.toWord(), 31u);
}

TEST(DwRippleCarryAdder, NarrowOperandsZeroExtend)
{
    LogicCounters c;
    DwRippleCarryAdder rca(16, c);
    auto r = rca.add(BitVec::fromWord(0xFF, 8), BitVec::fromWord(1, 4));
    EXPECT_EQ(r.sum.toWord(), 0x100u);
    EXPECT_FALSE(r.carry);
}

TEST(DwRippleCarryAdder, GateCountScalesWithWidth)
{
    LogicCounters c8;
    DwRippleCarryAdder rca8(8, c8);
    netlistAdd(rca8, 1, 2);
    LogicCounters c32;
    DwRippleCarryAdder rca32(32, c32);
    netlistAdd(rca32, 1, 2);
    EXPECT_EQ(c8.gateOps, 8u * DwFullAdder::kGatesPerBit);
    EXPECT_EQ(c32.gateOps, 32u * DwFullAdder::kGatesPerBit);
}

/** Property: RCA matches host addition for random operands. */
TEST(DwRippleCarryAdder, MatchesHostArithmetic)
{
    LogicCounters c;
    DwRippleCarryAdder rca(16, c);
    Rng rng(42);
    for (int i = 0; i < 500; ++i) {
        std::uint64_t a = rng.below(1 << 16);
        std::uint64_t b = rng.below(1 << 16);
        EXPECT_EQ(netlistAdd(rca, a, b), a + b) << a << "+" << b;
    }
}

TEST(DwAdderTree, SingleOperandPassesThrough)
{
    LogicCounters c;
    DwAdderTree tree(1, 8, c);
    EXPECT_EQ(tree.levels(), 0u);
    EXPECT_EQ(tree.resultWidth(), 8u);
    EXPECT_EQ(netlistSum(tree, 8, {42}), 42u);
}

TEST(DwAdderTree, TwoOperands)
{
    LogicCounters c;
    DwAdderTree tree(2, 8, c);
    EXPECT_EQ(tree.levels(), 1u);
    EXPECT_EQ(tree.resultWidth(), 9u);
    EXPECT_EQ(netlistSum(tree, 8, {255, 255}), 510u);
}

TEST(DwAdderTree, EightOperandsFullPrecision)
{
    LogicCounters c;
    DwAdderTree tree(8, 8, c);
    EXPECT_EQ(tree.levels(), 3u);
    EXPECT_EQ(tree.resultWidth(), 11u);
    std::vector<std::uint64_t> vals(8, 255);
    EXPECT_EQ(netlistSum(tree, 8, vals), 8u * 255u);
}

TEST(DwAdderTree, OddOperandCount)
{
    LogicCounters c;
    DwAdderTree tree(5, 8, c);
    EXPECT_EQ(netlistSum(tree, 8, {1, 2, 3, 4, 5}), 15u);
}

/** Property: adder tree equals host sum over random vectors. */
class AdderTreeSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(AdderTreeSweep, MatchesHostSum)
{
    auto [operands, width] = GetParam();
    LogicCounters c;
    DwAdderTree tree(operands, width, c);
    Rng rng(7 * operands + width);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::uint64_t> vals;
        std::uint64_t expect = 0;
        for (unsigned i = 0; i < operands; ++i) {
            vals.push_back(rng.below(std::uint64_t(1) << width));
            expect += vals.back();
        }
        EXPECT_EQ(netlistSum(tree, width, vals), expect);
    }
}

INSTANTIATE_TEST_SUITE_P(
    OperandWidthGrid, AdderTreeSweep,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 7u, 8u, 16u),
                       ::testing::Values(4u, 8u, 16u)));

} // namespace
} // namespace streampim
