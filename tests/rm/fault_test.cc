/**
 * @file
 * Tests for the shift-fault model (the segmentation argument of
 * Sec. III-D) — failure injection included.
 */

#include <gtest/gtest.h>

#include "rm/fault.hh"

namespace streampim
{
namespace
{

/** Net displacement after @p pulses sampled pulses; over-shift > 0. */
long
netDisplacement(const ShiftFaultModel &m, Rng &rng,
                std::uint64_t pulses, unsigned steps_per_pulse)
{
    long error = 0;
    for (std::uint64_t i = 0; i < pulses; ++i) {
        const ShiftOutcome o = m.samplePulse(rng, steps_per_pulse);
        error += o == ShiftOutcome::OverShift    ? 1
                 : o == ShiftOutcome::UnderShift ? -1
                                                 : 0;
    }
    return error;
}

TEST(ShiftFault, PulseProbabilityGrowsWithLength)
{
    ShiftFaultModel m(1e-4);
    double prev = 0.0;
    for (unsigned steps : {1u, 64u, 256u, 1024u, 4096u}) {
        double p = m.pulseFaultProbability(steps);
        EXPECT_GT(p, prev);
        EXPECT_LT(p, 1.0);
        prev = p;
    }
}

TEST(ShiftFault, SingleStepMatchesBaseProbability)
{
    ShiftFaultModel m(2e-3);
    EXPECT_NEAR(m.pulseFaultProbability(1), 2e-3, 1e-12);
}

TEST(ShiftFault, ZeroRateNeverFaults)
{
    ShiftFaultModel m(0.0);
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(m.samplePulse(rng, 4096), ShiftOutcome::Exact);
    EXPECT_EQ(netDisplacement(m, rng, 1000, 64), 0);
}

TEST(ShiftFault, SegmentationBoundsPerPulseExposure)
{
    // The Sec. III-D claim: with one pulse per segment, the
    // per-pulse fault probability depends only on the segment size,
    // not the bus length; and expected faults per transfer are
    // nearly identical because the Bernoulli model is
    // per-domain-step.
    ShiftFaultModel m(4.5e-5);
    double segmented = m.expectedFaults(4096, 64);
    double monolithic = m.expectedFaults(4096, 4096);
    // Expected fault *counts* are comparable...
    EXPECT_NEAR(segmented / monolithic, 1.0, 0.15);
    // ...but a monolithic pulse is almost certain to fault at least
    // once, while each segmented pulse is individually safe, which
    // is what lets per-segment retry/ECC recover.
    EXPECT_LT(m.pulseFaultProbability(64), 0.005);
    EXPECT_GT(m.pulseFaultProbability(4096), 0.15);
}

TEST(ShiftFault, SampledErrorIsUnbiasedForSymmetricModel)
{
    ShiftFaultModel m(5e-3, 0.5);
    Rng rng(42);
    long total = 0;
    for (int i = 0; i < 200; ++i)
        total += netDisplacement(m, rng, 100, 16);
    // Mean error should hover near zero for a symmetric model.
    EXPECT_LT(std::abs(total), 60);
}

TEST(ShiftFault, OverFractionBiasesErrors)
{
    ShiftFaultModel over_only(5e-2, 1.0);
    Rng rng(7);
    long err = netDisplacement(over_only, rng, 500, 16);
    EXPECT_GT(err, 0);

    ShiftFaultModel under_only(5e-2, 0.0);
    long err2 = netDisplacement(under_only, rng, 500, 16);
    EXPECT_LT(err2, 0);
}

TEST(ShiftFault, SampledRateMatchesAnalyticRate)
{
    const double p_step = 1e-3;
    const unsigned steps = 128;
    ShiftFaultModel m(p_step);
    Rng rng(123);
    const int pulses = 20000;
    int faults = 0;
    for (int i = 0; i < pulses; ++i)
        faults += m.samplePulse(rng, steps) != ShiftOutcome::Exact;
    double measured = double(faults) / pulses;
    double analytic = m.pulseFaultProbability(steps);
    EXPECT_NEAR(measured, analytic, 0.02);
}

TEST(ShiftFaultDeath, InvalidProbabilitiesPanic)
{
    EXPECT_DEATH(ShiftFaultModel(1.5), "probability");
    EXPECT_DEATH(ShiftFaultModel(0.1, 2.0), "fraction");
}

} // namespace
} // namespace streampim
