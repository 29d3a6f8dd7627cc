/**
 * @file
 * Tests for the Duplicator's four-step protocol (Fig. 9).
 */

#include <gtest/gtest.h>

#include "dwlogic/duplicator.hh"

namespace streampim
{
namespace
{

TEST(Duplicator, StartsIdle)
{
    LogicCounters c;
    Duplicator dup(8, c);
    EXPECT_EQ(dup.phase(), DuplicatorStep::Idle);
}

TEST(Duplicator, LoadMovesToReady)
{
    LogicCounters c;
    Duplicator dup(8, c);
    dup.load(BitVec::fromWord(0xA5, 8));
    EXPECT_EQ(dup.phase(), DuplicatorStep::Ready);
    EXPECT_EQ(dup.origin().toWord(), 0xA5u);
}

TEST(Duplicator, FourStepWalkThroughPhases)
{
    LogicCounters c;
    Duplicator dup(8, c);
    dup.load(BitVec::fromWord(0x3C, 8));

    dup.step();
    EXPECT_EQ(dup.phase(), DuplicatorStep::Propagate);
    dup.step();
    EXPECT_EQ(dup.phase(), DuplicatorStep::Split);
    dup.step();
    EXPECT_EQ(dup.phase(), DuplicatorStep::ReturnReplica);
    dup.step();
    EXPECT_EQ(dup.phase(), DuplicatorStep::Ready);

    EXPECT_EQ(dup.takeOutput().toWord(), 0x3Cu);
    EXPECT_EQ(dup.origin().toWord(), 0x3Cu);
    EXPECT_EQ(dup.cycles(), 1u);
}

TEST(Duplicator, DuplicationIsNonDestructive)
{
    LogicCounters c;
    Duplicator dup(8, c);
    dup.load(BitVec::fromWord(0x7E, 8));
    BitVec replica = dup.duplicate();
    EXPECT_EQ(replica.toWord(), 0x7Eu);
    EXPECT_EQ(dup.origin().toWord(), 0x7Eu);
}

TEST(Duplicator, RepeatedDuplicationYieldsIdenticalReplicas)
{
    LogicCounters c;
    Duplicator dup(8, c);
    dup.load(BitVec::fromWord(0x99, 8));
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(dup.duplicate().toWord(), 0x99u) << "replica " << i;
    EXPECT_EQ(dup.cycles(), 8u);
}

TEST(Duplicator, FanOutCountMatchesBitsPerCycle)
{
    LogicCounters c;
    Duplicator dup(8, c);
    dup.load(BitVec::fromWord(0xFF, 8));
    dup.duplicate();
    // One fan-out event per bit of the word.
    EXPECT_EQ(c.fanOuts, 8u);
    // The backward replica passes the diode bit by bit.
    EXPECT_EQ(c.diodePasses, 8u);
}

TEST(Duplicator, UnloadReturnsWordAndIdles)
{
    LogicCounters c;
    Duplicator dup(8, c);
    dup.load(BitVec::fromWord(0x42, 8));
    dup.duplicate();
    BitVec word = dup.unload();
    EXPECT_EQ(word.toWord(), 0x42u);
    EXPECT_EQ(dup.phase(), DuplicatorStep::Idle);
}

TEST(Duplicator, ReloadAfterUnload)
{
    LogicCounters c;
    Duplicator dup(8, c);
    dup.load(BitVec::fromWord(1, 8));
    dup.unload();
    dup.load(BitVec::fromWord(2, 8));
    EXPECT_EQ(dup.duplicate().toWord(), 2u);
}

/** Property: duplication preserves every 8-bit pattern. */
class DuplicatorAllBytes : public ::testing::TestWithParam<unsigned> {};

TEST_P(DuplicatorAllBytes, RoundTrip)
{
    LogicCounters c;
    Duplicator dup(8, c);
    dup.load(BitVec::fromWord(GetParam(), 8));
    EXPECT_EQ(dup.duplicate().toWord(), GetParam());
    EXPECT_EQ(dup.origin().toWord(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllByteValues, DuplicatorAllBytes,
                         ::testing::Range(0u, 256u, 13u));

TEST(DuplicatorDeath, StepWhileIdlePanics)
{
    LogicCounters c;
    Duplicator dup(8, c);
    EXPECT_DEATH(dup.step(), "idle duplicator");
}

TEST(DuplicatorDeath, DoubleLoadPanics)
{
    LogicCounters c;
    Duplicator dup(8, c);
    dup.load(BitVec::fromWord(1, 8));
    EXPECT_DEATH(dup.load(BitVec::fromWord(2, 8)), "in flight");
}

TEST(DuplicatorDeath, WidthMismatchPanics)
{
    LogicCounters c;
    Duplicator dup(8, c);
    EXPECT_DEATH(dup.load(BitVec::fromWord(1, 4)), "width");
}

} // namespace
} // namespace streampim
