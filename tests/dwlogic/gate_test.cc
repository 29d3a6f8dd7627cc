/**
 * @file
 * Unit tests for domain-wall logic gates, fan-out and diode.
 */

#include <gtest/gtest.h>

#include "dwlogic/gate.hh"

namespace streampim
{
namespace
{

TEST(DwGate, NandTruthTable)
{
    LogicCounters c;
    DwGate g(DwGateType::Nand, c);
    EXPECT_TRUE(g.eval(false, false));
    EXPECT_TRUE(g.eval(false, true));
    EXPECT_TRUE(g.eval(true, false));
    EXPECT_FALSE(g.eval(true, true));
}

TEST(DwGate, AndIsACompositeGate)
{
    LogicCounters c;
    DwGate g_and(DwGateType::And, c);
    EXPECT_TRUE(g_and.eval(true, true));
    EXPECT_FALSE(g_and.eval(true, false));
    // AND = NAND + inverter: two gate ops per eval.
    EXPECT_EQ(c.gateOps, 4u);
}

TEST(DwGate, EveryEvalCountsGateAndShift)
{
    LogicCounters c;
    DwGate g(DwGateType::Nand, c);
    g.eval(true, true);
    EXPECT_EQ(c.gateOps, 1u);
    EXPECT_EQ(c.shiftSteps, 1u);
    g.eval(false, true);
    EXPECT_EQ(c.gateOps, 2u);
    EXPECT_EQ(c.shiftSteps, 2u);
}

TEST(DwGate, TruthMatchesEvalForAllInputs)
{
    LogicCounters c;
    for (auto type : {DwGateType::Nand, DwGateType::And}) {
        DwGate g(type, c);
        for (bool a : {false, true})
            for (bool b : {false, true})
                EXPECT_EQ(g.eval(a, b), DwGate::truth(type, a, b));
    }
}

TEST(DwFanOut, SplitsDomainIntoTwoCopies)
{
    LogicCounters c;
    DwFanOut f(c);
    auto p1 = f.split(true);
    EXPECT_TRUE(p1.first);
    EXPECT_TRUE(p1.second);
    auto p0 = f.split(false);
    EXPECT_FALSE(p0.first);
    EXPECT_FALSE(p0.second);
    EXPECT_EQ(c.fanOuts, 2u);
}

TEST(DwDiode, BlocksWhenDisabled)
{
    LogicCounters c;
    DwDiode d(c);
    bool bit = true;
    EXPECT_FALSE(d.passForward(bit));
    EXPECT_EQ(c.diodePasses, 0u);
}

TEST(DwDiode, PassesForwardWhenEnabled)
{
    LogicCounters c;
    DwDiode d(c);
    d.enable();
    bool bit = true;
    EXPECT_TRUE(d.passForward(bit));
    EXPECT_TRUE(bit); // value unchanged
    EXPECT_EQ(c.diodePasses, 1u);
}

TEST(LogicCounters, MergeAccumulates)
{
    LogicCounters a, b;
    a.gateOps = 3;
    a.shiftSteps = 5;
    b.gateOps = 7;
    b.fanOuts = 2;
    a += b;
    EXPECT_EQ(a.gateOps, 10u);
    EXPECT_EQ(a.shiftSteps, 5u);
    EXPECT_EQ(a.fanOuts, 2u);
}

} // namespace
} // namespace streampim
