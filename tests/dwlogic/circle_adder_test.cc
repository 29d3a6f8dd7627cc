/**
 * @file
 * Tests for the Circle Adder accumulation protocol (Fig. 10).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dwlogic/circle_adder.hh"

namespace streampim
{
namespace
{

TEST(CircleAdder, StartsZeroed)
{
    LogicCounters c;
    CircleAdder ca(32, c);
    EXPECT_EQ(ca.accumulatorWord(), 0u);
    EXPECT_EQ(ca.phase(), CircleAdderStep::AwaitOperand);
}

TEST(CircleAdder, FourStepWalkThroughPhases)
{
    LogicCounters c;
    CircleAdder ca(16, c);
    ca.loadOperand(BitVec::fromWord(100, 16));

    ca.step();
    EXPECT_EQ(ca.phase(), CircleAdderStep::Added);
    ca.step();
    EXPECT_EQ(ca.phase(), CircleAdderStep::DiodePassed);
    ca.step();
    EXPECT_EQ(ca.phase(), CircleAdderStep::Circulated);
    EXPECT_EQ(ca.accumulatorWord(), 100u);
    ca.step();
    EXPECT_EQ(ca.phase(), CircleAdderStep::AwaitOperand);
    EXPECT_EQ(ca.accumulations(), 1u);
}

TEST(CircleAdder, AccumulatesSequence)
{
    LogicCounters c;
    CircleAdder ca(32, c);
    std::uint64_t expect = 0;
    for (std::uint64_t v : {5u, 10u, 200u, 65535u, 1u}) {
        ca.accumulate(BitVec::fromWord(v, 16));
        expect += v;
        EXPECT_EQ(ca.accumulatorWord(), expect);
    }
    EXPECT_EQ(ca.accumulations(), 5u);
}

TEST(CircleAdder, ClearResetsAccumulator)
{
    LogicCounters c;
    CircleAdder ca(32, c);
    ca.accumulate(BitVec::fromWord(123, 16));
    ca.clear();
    EXPECT_EQ(ca.accumulatorWord(), 0u);
    ca.accumulate(BitVec::fromWord(7, 16));
    EXPECT_EQ(ca.accumulatorWord(), 7u);
}

TEST(CircleAdder, OverflowIsFlaggedNotSilent)
{
    LogicCounters c;
    CircleAdder ca(8, c);
    ca.accumulate(BitVec::fromWord(200, 8));
    EXPECT_FALSE(ca.overflowed());
    ca.accumulate(BitVec::fromWord(100, 8));
    EXPECT_TRUE(ca.overflowed());
    // Wrap-around semantics in the register itself.
    EXPECT_EQ(ca.accumulatorWord(), (200u + 100u) & 0xFFu);
}

TEST(CircleAdder, ScalarAdditionBypassesAccumulator)
{
    LogicCounters c;
    CircleAdder ca(16, c);
    ca.accumulate(BitVec::fromWord(1000, 16));
    BitVec sum = ca.addScalars(BitVec::fromWord(30, 16),
                               BitVec::fromWord(12, 16));
    EXPECT_EQ(sum.toWord(), 42u);
    // The dot-product accumulator is untouched by scalar mode.
    EXPECT_EQ(ca.accumulatorWord(), 1000u);
}

TEST(CircleAdder, DotProductOfLength2000FitsIn32Bits)
{
    // Worst case of the paper's workloads: 2000 products of
    // 255*255 = 130 050 000 < 2^32.
    LogicCounters c;
    CircleAdder ca(32, c);
    for (int i = 0; i < 2000; ++i)
        ca.accumulate(BitVec::fromWord(255 * 255, 16));
    EXPECT_EQ(ca.accumulatorWord(), 2000ull * 255 * 255);
    EXPECT_FALSE(ca.overflowed());
}

/** Property: accumulating random products matches host arithmetic. */
TEST(CircleAdder, MatchesHostAccumulation)
{
    LogicCounters c;
    CircleAdder ca(32, c);
    Rng rng(123);
    std::uint64_t expect = 0;
    for (int i = 0; i < 300; ++i) {
        std::uint64_t v = rng.below(1 << 16);
        ca.accumulate(BitVec::fromWord(v, 16));
        expect += v;
    }
    EXPECT_EQ(ca.accumulatorWord(), expect);
}

TEST(CircleAdderDeath, DoubleLoadPanics)
{
    LogicCounters c;
    CircleAdder ca(16, c);
    ca.loadOperand(BitVec::fromWord(1, 16));
    ca.step();
    EXPECT_DEATH(ca.loadOperand(BitVec::fromWord(2, 16)), "occupied");
}

TEST(CircleAdderDeath, ClearMidAccumulationPanics)
{
    LogicCounters c;
    CircleAdder ca(16, c);
    ca.loadOperand(BitVec::fromWord(1, 16));
    ca.step();
    EXPECT_DEATH(ca.clear(), "mid-accumulation");
}

} // namespace
} // namespace streampim
