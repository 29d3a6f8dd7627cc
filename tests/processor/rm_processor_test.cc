/**
 * @file
 * Tests for the bit-accurate RM processor.
 */

#include <gtest/gtest.h>

#include <array>

#include "common/rng.hh"
#include "processor/rm_processor.hh"

namespace streampim
{
namespace
{

struct Fixture
{
    RmParams params;
    EnergyMeter meter;
    RmProcessor proc{params, meter};

    ProcessorResult
    dot(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b)
    {
        ProcessorResult r;
        proc.dotProductInto(a, b, r);
        return r;
    }

    ProcessorResult
    add(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b)
    {
        ProcessorResult r;
        proc.vectorAddInto(a, b, r);
        return r;
    }
};

TEST(RmProcessor, DotProductMatchesHost)
{
    Fixture f;
    std::array<std::uint8_t, 5> a = {1, 2, 3, 4, 5};
    std::array<std::uint8_t, 5> b = {10, 20, 30, 40, 50};
    auto r = f.dot(a, b);
    EXPECT_EQ(r.values.at(0), 10u + 40 + 90 + 160 + 250);
    EXPECT_FALSE(r.overflow);
}

TEST(RmProcessor, DotProductCyclesFollowClosedForm)
{
    Fixture f;
    std::vector<std::uint8_t> a(37, 3), b(37, 7);
    auto r = f.dot(a, b);
    EXPECT_EQ(r.cycles, f.proc.timing().dotProductCycles(37));
}

TEST(RmProcessor, DotProductEnergyPerElement)
{
    Fixture f;
    std::vector<std::uint8_t> a(10, 1), b(10, 1);
    f.dot(a, b);
    EXPECT_EQ(f.meter.count(EnergyOp::PimMul), 10u);
    EXPECT_EQ(f.meter.count(EnergyOp::PimAdd), 10u);
    EXPECT_NEAR(f.meter.energyPj(EnergyOp::PimMul),
                10 * f.params.pimMulPj, 1e-9);
}

TEST(RmProcessor, ScalarVectorMulFullPrecision)
{
    Fixture f;
    std::vector<std::uint8_t> v = {0, 1, 128, 255};
    ProcessorResult r;
    f.proc.scalarVectorMulInto(255, v, r);
    EXPECT_EQ(r.values.at(0), 0u);
    EXPECT_EQ(r.values.at(1), 255u);
    EXPECT_EQ(r.values.at(2), 255u * 128);
    EXPECT_EQ(r.values.at(3), 255u * 255);
}

TEST(RmProcessor, VectorAddProducesNineBitSums)
{
    Fixture f;
    std::vector<std::uint8_t> a = {255, 0, 128};
    std::vector<std::uint8_t> b = {255, 0, 128};
    auto r = f.add(a, b);
    EXPECT_EQ(r.values.at(0), 510u);
    EXPECT_EQ(r.values.at(1), 0u);
    EXPECT_EQ(r.values.at(2), 256u);
}

TEST(RmProcessor, CountersAccumulateAcrossOperations)
{
    Fixture f;
    std::vector<std::uint8_t> a(4, 2), b(4, 3);
    f.dot(a, b);
    auto gates_after_dot = f.proc.counters().gateOps;
    EXPECT_GT(gates_after_dot, 0u);
    f.add(a, b);
    EXPECT_GT(f.proc.counters().gateOps, gates_after_dot);
}

TEST(RmProcessor, LongDotProductAccumulates32Bits)
{
    Fixture f;
    std::vector<std::uint8_t> a(3000, 255), b(3000, 255);
    auto r = f.dot(a, b);
    EXPECT_EQ(r.values.at(0), 3000u * 255 * 255);
    EXPECT_FALSE(r.overflow);
}

TEST(RmProcessorDeath, MismatchedLengthsPanic)
{
    Fixture f;
    std::vector<std::uint8_t> a(3), b(4);
    EXPECT_DEATH(f.dot(a, b), "mismatch");
    EXPECT_DEATH(f.add(a, b), "mismatch");
}

/** Property: random dot products match host arithmetic. */
class ProcessorDotSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ProcessorDotSweep, MatchesHost)
{
    Fixture f;
    Rng rng(GetParam() * 31);
    std::vector<std::uint8_t> a(GetParam()), b(GetParam());
    std::uint32_t expect = 0;
    for (unsigned i = 0; i < GetParam(); ++i) {
        a[i] = std::uint8_t(rng.below(256));
        b[i] = std::uint8_t(rng.below(256));
        expect += std::uint32_t(a[i]) * b[i];
    }
    EXPECT_EQ(f.dot(a, b).values.at(0), expect);
}

INSTANTIATE_TEST_SUITE_P(Lengths, ProcessorDotSweep,
                         ::testing::Values(1u, 2u, 5u, 16u, 64u,
                                           100u));

} // namespace
} // namespace streampim
