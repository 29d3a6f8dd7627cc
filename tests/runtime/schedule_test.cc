/**
 * @file
 * Tests for the run-length VpcSchedule: push() coalesces affine runs,
 * pushRun() appends a whole run as that many push() calls would, and
 * forEachBatch() gives back exactly the logical batches pushed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

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

/** @p b as a run of @p repeat batches with the given steps. */
VpcBatch
runOf(VpcBatch b, std::uint32_t repeat, std::int32_t sub_step,
      std::int32_t dst_step, std::int32_t a_step, std::int32_t b_step)
{
    b.repeat = repeat;
    b.subarrayStep = sub_step;
    b.dstSubarrayStep = dst_step;
    b.depAStep = a_step;
    b.depBStep = b_step;
    return b;
}

/**
 * pushRun(@p run) onto @p s must leave the same descriptors and
 * return the same index as pushing the run's batches one by one.
 */
void
expectRunEqualsPushes(const VpcSchedule &s, const VpcBatch &run,
                      const std::string &what)
{
    VpcSchedule by_run = s, by_push = s;
    const std::uint32_t got = by_run.pushRun(run);

    VpcBatch b = run;
    b.repeat = 1;
    b.subarrayStep = b.dstSubarrayStep = b.depAStep = b.depBStep = 0;
    const auto want = std::uint32_t(by_push.batchCount());
    for (std::uint32_t r = 0; r < run.repeat; ++r) {
        by_push.push(b);
        b.barrier = false;
        b.subarray += std::uint32_t(run.subarrayStep);
        b.dstSubarray += std::uint32_t(run.dstSubarrayStep);
        b.depA += std::uint32_t(run.depAStep);
        b.depB += std::uint32_t(run.depBStep);
    }
    EXPECT_EQ(got, want) << what;
    EXPECT_EQ(by_run.batches, by_push.batches) << what;
    EXPECT_EQ(by_run.batchCount(), by_push.batchCount()) << what;
}

/**
 * 1200 filler batches of another kind (so nothing joins them), then
 * @p tail pushed one at a time: enough history for dependencies
 * that walk back 1000 batches.
 */
VpcSchedule
scheduleEndingIn(const std::vector<VpcBatch> &tail)
{
    VpcSchedule s;
    VpcBatch filler = mul(0);
    filler.kind = VpcKind::Add;
    for (int i = 0; i < 1200; ++i)
        s.push(filler);
    for (const VpcBatch &b : tail)
        s.push(b);
    return s;
}

TEST(SchedulePushRun, MatchesRepeatedPushes)
{
    // The run's first batch: a TRAN with both dependencies used.
    VpcBatch head;
    head.kind = VpcKind::Tran;
    head.subarray = 500;
    head.dstSubarray = 1500;
    head.vpcCount = 3;
    head.vectorLen = 17;
    head.depA = 1100;
    head.depB = 1150;

    struct Steps
    {
        std::int32_t sub, dst, a, b;
    };
    const Steps steps[] = {
        {1, 0, 1, 0},   // the planner's compute/collect runs
        {0, 1, 0, 0},   // a broadcast fan-out
        {0, 0, 0, 0},   // one batch repeated
        {-1, -1, -1, 1}, // negative steps
        {3, -2, 0, -1},
    };
    // Batch -1 of the run (it lies on the run's lane) and a batch of
    // the run's shape that does not.
    auto before = [&head](const Steps &st, std::uint32_t back) {
        VpcBatch b = head;
        b.subarray -= back * std::uint32_t(st.sub);
        b.dstSubarray -= back * std::uint32_t(st.dst);
        b.depA -= back * std::uint32_t(st.a);
        b.depB -= back * std::uint32_t(st.b);
        return b;
    };
    VpcBatch off_lane = head;
    off_lane.subarray = 7;
    off_lane.dstSubarray = 9;

    for (const Steps &st : steps) {
        // Prefixes: none; a repeat-1 descriptor the run's first batch
        // extends with matching and with mismatching steps; a
        // descriptor of repeat >= 2 the run continues; and one whose
        // next batch the run's first batch is not.
        const std::vector<std::pair<std::string, std::vector<VpcBatch>>>
            prefixes = {
                {"filler only", {}},
                {"repeat-1, matching", {before(st, 1)}},
                {"repeat-1, mismatching", {off_lane}},
                {"repeat-4, continued",
                 {before(st, 4), before(st, 3), before(st, 2),
                  before(st, 1)}},
                {"repeat-2, broken", {off_lane, off_lane}},
            };
        for (const auto &[name, tail] : prefixes) {
            const VpcSchedule s = scheduleEndingIn(tail);
            for (std::uint32_t repeat : {1u, 2u, 3u, 1000u}) {
                const std::string what =
                    name + " steps " + std::to_string(st.sub) + "/" +
                    std::to_string(st.dst) + "/" + std::to_string(st.a) +
                    "/" + std::to_string(st.b) + " repeat " +
                    std::to_string(repeat);
                const VpcBatch run =
                    runOf(head, repeat, st.sub, st.dst, st.a, st.b);
                expectRunEqualsPushes(s, run, what);

                VpcBatch no_deps = run;
                no_deps.depA = no_deps.depB = kNoBatch;
                no_deps.depAStep = no_deps.depBStep = 0;
                expectRunEqualsPushes(s, no_deps, what + " no deps");

                VpcBatch barrier = run;
                barrier.barrier = true;
                expectRunEqualsPushes(s, barrier, what + " barrier");
            }
        }
    }
    // An empty schedule takes only dependency-free runs.
    expectRunEqualsPushes(VpcSchedule{}, runOf(mul(4), 1000, 1, 0, 0, 0),
                          "empty schedule");
    expectRunEqualsPushes(VpcSchedule{}, runOf(mul(4), 2, -1, 0, 0, 0),
                          "empty schedule, two batches");
}

class SchedulePushRunReplay : public ::testing::TestWithParam<unsigned>
{};

TEST_P(SchedulePushRunReplay, ReplayingDescriptorsRebuildsTheSchedule)
{
    // push() opened each descriptor because its first batch could
    // not extend the one before, so pushing the descriptors back as
    // runs must rebuild the same schedule.
    Rng rng(GetParam() * 7919 + 3);
    VpcSchedule s;
    for (const VpcBatch &b : runHeavyBatches(rng, 3000, 2048))
        s.push(b);
    VpcSchedule replay;
    for (const VpcBatch &run : s.batches)
        EXPECT_EQ(replay.pushRun(run), run.first);
    EXPECT_EQ(replay.batches, s.batches);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulePushRunReplay,
                         ::testing::Range(0u, 4u));

TEST(ScheduleDeath, PushRunChecksTheRunsLastDependency)
{
    VpcSchedule s;
    for (int i = 0; i < 10; ++i)
        s.push(mul(0));
    // Batch 0 (index 10) waits on 5; batch 9 (index 19) on 5 + 18.
    EXPECT_DEATH(s.pushRun(runOf(mul(1, 5), 10, 0, 0, 2, 0)),
                 "dependency on a future batch");
    // A dependency walking back past batch 0.
    EXPECT_DEATH(s.pushRun(runOf(mul(1, 5), 10, 0, 0, -1, 0)),
                 "dependency on a future batch");
}

TEST(ScheduleDeath, PushRunPastTheIndexSpaceIsFatal)
{
    VpcSchedule s;
    VpcBatch filled = mul(0);
    filled.repeat = kNoBatch - 5;
    s.batches.push_back(filled);
    // A run that crosses index 2^32 - 1 ends the run before any of
    // it is pushed.
    EXPECT_EXIT(s.pushRun(runOf(mul(0), 6, 0, 0, 0, 0)),
                ::testing::ExitedWithCode(1),
                "the most a 32-bit batch index can address");
    // One that ends just below it fits, in O(1).
    EXPECT_EQ(s.pushRun(runOf(mul(0), 5, 0, 0, 0, 0)), kNoBatch - 5);
    EXPECT_EQ(s.batchCount(), std::uint64_t(kNoBatch));
    EXPECT_EQ(s.batches.size(), 1u);
}

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
