/**
 * @file
 * Tests for the run-length VpcSchedule: push() coalesces affine runs
 * and forEachBatch() gives back exactly the logical batches pushed.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "runtime/schedule.hh"
#include "support/schedules.hh"

namespace streampim
{
namespace
{

VpcBatch
mul(std::uint32_t subarray, std::uint32_t dep_a = kNoBatch)
{
    VpcBatch b;
    b.kind = VpcKind::Mul;
    b.subarray = subarray;
    b.vpcCount = 2;
    b.vectorLen = 64;
    b.depA = dep_a;
    return b;
}

/** Push @p in, then check indices, counts and the expansion. */
void
expectRoundTrip(const std::vector<VpcBatch> &in)
{
    VpcSchedule s;
    std::vector<VpcBatch> want;
    std::uint64_t pim = 0, move = 0;
    for (VpcBatch b : in) {
        const std::uint32_t index = s.push(b);
        ASSERT_EQ(index, want.size());
        b.first = index;
        want.push_back(b);
        (isPimVpc(b.kind) ? pim : move) += b.vpcCount;
    }
    EXPECT_EQ(s.batchCount(), in.size());
    EXPECT_EQ(s.pimVpcs(), pim);
    EXPECT_EQ(s.moveVpcs(), move);
    ASSERT_EQ(expandedBatches(s), want);

    // Descriptors tile the logical index space; only element 0 of a
    // run carries a barrier, so every barrier batch opens one.
    std::uint64_t next = 0;
    for (const VpcBatch &run : s.batches) {
        EXPECT_EQ(run.first, next);
        EXPECT_GE(run.repeat, 1u);
        next += run.repeat;
    }
    for (std::size_t i = 0; i < in.size(); ++i) {
        if (in[i].barrier) {
            EXPECT_TRUE(std::any_of(
                s.batches.begin(), s.batches.end(),
                [i](const VpcBatch &run) { return run.first == i; }))
                << i;
        }
    }
}

TEST(Schedule, AffineRunsCoalesceIntoOneDescriptor)
{
    VpcSchedule s;
    // Subarray steps +3, destination steps -1, depA trails by one.
    for (std::uint32_t r = 0; r < 10; ++r) {
        VpcBatch b = mul(100 + 3 * r, r == 0 ? kNoBatch : r - 1);
        b.kind = VpcKind::Tran;
        b.dstSubarray = 50 - r;
        EXPECT_EQ(s.push(b), r);
    }
    // Batch 0 has no depA, so it cannot join the trailing-dep run.
    ASSERT_EQ(s.batches.size(), 2u);
    const VpcBatch &run = s.batches[1];
    EXPECT_EQ(run.first, 1u);
    EXPECT_EQ(run.repeat, 9u);
    EXPECT_EQ(run.subarrayStep, 3);
    EXPECT_EQ(run.dstSubarrayStep, -1);
    EXPECT_EQ(run.depAStep, 1);
    EXPECT_EQ(run.depBStep, 0);
    EXPECT_EQ(run.depB, kNoBatch);
    EXPECT_EQ(s.batchCount(), 10u);
}

TEST(Schedule, ZeroStepsRepeatTheSameBatch)
{
    VpcSchedule s;
    for (int r = 0; r < 5; ++r)
        s.push(mul(7));
    ASSERT_EQ(s.batches.size(), 1u);
    EXPECT_EQ(s.batches[0].repeat, 5u);
    EXPECT_EQ(s.batches[0].subarrayStep, 0);
    EXPECT_EQ(s.pimVpcs(), 10u);
}

TEST(Schedule, EachAffineFieldOffByOneBreaksTheRun)
{
    for (int field = 0; field < 4; ++field) {
        std::vector<VpcBatch> in;
        for (std::uint32_t r = 0; r < 8; ++r) {
            VpcBatch b = mul(10 + r, 20 + r);
            b.dstSubarray = 30 + r;
            b.depB = r;
            if (r == 5) {
                // Batch 5 misses its lane by one in exactly one field.
                (field == 0   ? b.subarray
                 : field == 1 ? b.dstSubarray
                 : field == 2 ? b.depA
                              : b.depB) += 1;
            }
            in.push_back(b);
        }
        // Real dependencies need earlier batches: shift the run up.
        std::vector<VpcBatch> pre(40, mul(0));
        in.insert(in.begin(), pre.begin(), pre.end());
        expectRoundTrip(in);
        VpcSchedule s;
        for (const VpcBatch &b : in)
            s.push(b);
        // Runs: the 40 pre batches; 0-4; 5-6, whose step in the
        // moved field is off; and 7, which misses that step.
        EXPECT_EQ(s.batches.size(), 4u) << field;
    }
}

TEST(Schedule, BarrierBatchStartsANewRun)
{
    std::vector<VpcBatch> in;
    for (std::uint32_t r = 0; r < 6; ++r) {
        in.push_back(mul(r));
        in.back().barrier = r == 0 || r == 3;
    }
    expectRoundTrip(in);
    VpcSchedule s;
    for (const VpcBatch &b : in)
        s.push(b);
    ASSERT_EQ(s.batches.size(), 2u);
    EXPECT_TRUE(s.batches[0].barrier);
    EXPECT_EQ(s.batches[0].repeat, 3u);
    EXPECT_TRUE(s.batches[1].barrier);
    EXPECT_EQ(s.batches[1].first, 3u);
}

TEST(Schedule, FlagChangeStartsANewRun)
{
    std::vector<VpcBatch> in;
    for (std::uint32_t r = 0; r < 6; ++r) {
        in.push_back(mul(r));
        in.back().recovery = r >= 4;
    }
    expectRoundTrip(in);
    VpcSchedule s;
    for (const VpcBatch &b : in)
        s.push(b);
    EXPECT_EQ(s.batches.size(), 2u);
}

TEST(Schedule, NoBatchDependencyNeverJoinsARealOne)
{
    // depA: none, none, 0, 1 — a real dependency after kNoBatch, and
    // back: the kNoBatch half stays kNoBatch for its whole run.
    std::vector<VpcBatch> in = {mul(0), mul(0), mul(0, 0), mul(0, 1),
                                mul(0)};
    expectRoundTrip(in);
    VpcSchedule s;
    for (const VpcBatch &b : in)
        s.push(b);
    ASSERT_EQ(s.batches.size(), 3u);
    EXPECT_EQ(s.batches[0].depA, kNoBatch);
    EXPECT_EQ(s.batches[0].depAStep, 0);
    EXPECT_EQ(s.batches[1].depAStep, 1);
}

TEST(Schedule, NegativeStepsWalkBackwards)
{
    std::vector<VpcBatch> in;
    for (std::uint32_t r = 0; r < 8; ++r)
        in.push_back(mul(900 - 5 * r));
    // A dependency walking back from the latest batch.
    for (std::uint32_t r = 0; r < 8; ++r)
        in.push_back(mul(3, 7 - r));
    expectRoundTrip(in);
    VpcSchedule s;
    for (const VpcBatch &b : in)
        s.push(b);
    ASSERT_EQ(s.batches.size(), 2u);
    EXPECT_EQ(s.batches[0].subarrayStep, -5);
    EXPECT_EQ(s.batches[1].depAStep, -1);
}

class ScheduleRoundTrip : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ScheduleRoundTrip, ExpansionGivesBackEveryPushedBatch)
{
    Rng rng(GetParam() * 104729 + 7);
    const std::vector<VpcBatch> in = runHeavyBatches(rng, 3000, 2048);
    expectRoundTrip(in);
    VpcSchedule s;
    for (const VpcBatch &b : in)
        s.push(b);
    // Runs average ~32 batches before breaks; far fewer descriptors.
    EXPECT_LT(s.batches.size(), in.size() / 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleRoundTrip,
                         ::testing::Range(0u, 8u));

TEST(ScheduleDeath, PushTakesOneLogicalBatch)
{
    VpcSchedule s;
    VpcBatch b = mul(0);
    b.repeat = 4;
    EXPECT_DEATH(s.push(b), "one logical batch");
}

TEST(ScheduleDeath, IndexSpaceExhaustionIsFatal)
{
    // One descriptor standing for every index but the last; the
    // schedule takes exactly one more batch, then runs out.
    VpcSchedule s;
    VpcBatch run = mul(0);
    run.repeat = kNoBatch - 1;
    s.batches.push_back(run);
    EXPECT_EQ(s.push(mul(0)), kNoBatch - 1);
    EXPECT_EQ(s.batchCount(), std::uint64_t(kNoBatch));
    EXPECT_EXIT(s.push(mul(0)), ::testing::ExitedWithCode(1),
                "schedule holds 4294967295 batches");
}

} // namespace
} // namespace streampim
