/**
 * @file
 * Tests for the per-category energy meter.
 */

#include <gtest/gtest.h>

#include "rm/energy.hh"

namespace streampim
{
namespace
{

TEST(EnergyMeterBasics, RecordAndTotal)
{
    EnergyMeter m;
    m.record(EnergyOp::RmRead, 3.8, 10);
    m.record(EnergyOp::PimMul, 0.18, 100);
    EXPECT_EQ(m.count(EnergyOp::RmRead), 10u);
    EXPECT_NEAR(m.energyPj(EnergyOp::PimMul), 18.0, 1e-9);
    EXPECT_NEAR(m.totalPj(), 38.0 + 18.0, 1e-9);
}

TEST(EnergyMeterBasics, MergeAddsAllCategories)
{
    EnergyMeter a, b;
    a.record(EnergyOp::RmWrite, 11.79, 2);
    b.record(EnergyOp::RmWrite, 11.79, 3);
    b.record(EnergyOp::BusShift, 3.26, 1);
    a.merge(b);
    EXPECT_EQ(a.count(EnergyOp::RmWrite), 5u);
    EXPECT_EQ(a.count(EnergyOp::BusShift), 1u);
}

TEST(EnergyMeterBasics, NamesAreStable)
{
    EXPECT_STREQ(energyOpName(EnergyOp::RmRead), "rm_read");
    EXPECT_STREQ(energyOpName(EnergyOp::PimMul), "pim_mul");
    EXPECT_STREQ(energyOpName(EnergyOp::BusElectrical),
                 "bus_electrical");
}

} // namespace
} // namespace streampim
