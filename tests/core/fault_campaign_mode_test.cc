/**
 * @file
 * Fault campaigns must be byte-identical across the two
 * functional-model levels: the closed forms (batched processor
 * counters, the mat word path) may not perturb a single RNG draw,
 * status, or destination byte relative to the strict-mode oracles.
 * A fallible bus transfer always takes the per-segment sweep
 * precisely so this holds.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/fault_campaign.hh"
#include "dwlogic/mode.hh"

namespace streampim
{
namespace
{

FaultCampaignResult
runInMode(const FaultCampaignConfig &cfg, bool strict)
{
    ScopedStrictGates mode(strict);
    return runFaultCampaign(cfg);
}

void
expectIdentical(const FaultCampaignResult &a,
                const FaultCampaignResult &b)
{
    EXPECT_EQ(a.clean, b.clean);
    EXPECT_EQ(a.corrected, b.corrected);
    EXPECT_EQ(a.retried, b.retried);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.mismatchedRecovered, b.mismatchedRecovered);
    EXPECT_EQ(a.failedButIntact, b.failedButIntact);
    EXPECT_EQ(a.stats.pulses, b.stats.pulses);
    EXPECT_EQ(a.stats.faultsInjected, b.stats.faultsInjected);
    EXPECT_EQ(a.stats.overShifts, b.stats.overShifts);
    EXPECT_EQ(a.stats.underShifts, b.stats.underShifts);
    EXPECT_EQ(a.stats.guardChecks, b.stats.guardChecks);
    EXPECT_EQ(a.stats.checksMissed, b.stats.checksMissed);
    EXPECT_EQ(a.stats.correctionShifts, b.stats.correctionShifts);
    EXPECT_EQ(a.stats.realignRetries, b.stats.realignRetries);
    EXPECT_EQ(a.stats.uncorrectable, b.stats.uncorrectable);
    EXPECT_EQ(a.stats.budgetExhausted, b.stats.budgetExhausted);
    ASSERT_EQ(a.perVpc.size(), b.perVpc.size());
    for (std::size_t i = 0; i < a.perVpc.size(); ++i) {
        EXPECT_EQ(a.perVpc[i].status, b.perVpc[i].status)
            << "VPC " << i;
        EXPECT_EQ(a.perVpc[i].bitExact, b.perVpc[i].bitExact)
            << "VPC " << i;
        EXPECT_EQ(a.perVpc[i].resultLen, b.perVpc[i].resultLen)
            << "VPC " << i;
    }
}

TEST(FaultCampaignModes, FastAndStrictAreByteIdentical)
{
    // Operating points spanning clean runs, corrected faults, and
    // heavy escalation; each must reproduce exactly in both modes.
    struct Point
    {
        double pStep;
        double coverage;
        std::uint64_t seed;
    };
    const std::vector<Point> points = {
        {0.0, 0.999, 1},
        {1e-4, 0.999, 2},
        {1e-3, 0.90, 3},
        {1e-2, 0.90, 4},
    };
    for (const Point &pt : points) {
        FaultCampaignConfig cfg;
        cfg.pStep = pt.pStep;
        cfg.guardCoverage = pt.coverage;
        cfg.seed = pt.seed;
        auto fast = runInMode(cfg, false);
        auto strict = runInMode(cfg, true);
        expectIdentical(fast, strict);
    }
}

TEST(FaultCampaignModes, SegmentSizeSweepStaysIdentical)
{
    for (unsigned seg : {64u, 128u, 256u}) {
        FaultCampaignConfig cfg;
        cfg.busSegmentSize = seg;
        cfg.pStep = 1e-3;
        cfg.seed = 0x5eed ^ seg;
        auto fast = runInMode(cfg, false);
        auto strict = runInMode(cfg, true);
        expectIdentical(fast, strict);
    }
}

} // namespace
} // namespace streampim
