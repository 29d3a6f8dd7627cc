/**
 * @file
 * Cross-validation: the fast busy-until sweep Executor and the
 * independent max-plus/event reference executor must produce
 * tick-identical makespans on planner schedules and on randomly
 * generated ones.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/event_executor.hh"
#include "core/executor.hh"
#include "runtime/planner.hh"
#include "support/schedules.hh"
#include "workloads/dnn.hh"
#include "workloads/polybench.hh"

namespace streampim
{
namespace
{

void
expectIdentical(const SystemConfig &cfg, const VpcSchedule &s,
                const char *what)
{
    Executor fast(cfg);
    EventExecutor reference(cfg);
    ExecutionReport a = fast.run(s);
    EventExecutionResult b = reference.run(s);
    EXPECT_EQ(a.makespan, b.makespan) << what;
}

TEST(ExecutorCrossValidation, PlannerSchedulesAllKernelsAllLevels)
{
    for (OptLevel level : {OptLevel::Base, OptLevel::Distribute,
                           OptLevel::Unblock}) {
        SystemConfig cfg = SystemConfig::paperDefault();
        cfg.optLevel = level;
        Planner p(cfg);
        for (PolybenchKernel k : allPolybenchKernels()) {
            VpcSchedule s = p.plan(makePolybench(k, 48));
            expectIdentical(cfg, s, polybenchName(k));
        }
    }
}

TEST(ExecutorCrossValidation, ElectricalBusSchedules)
{
    SystemConfig cfg = SystemConfig::paperDefault();
    cfg.busType = BusType::Electrical;
    Planner p(cfg);
    VpcSchedule s =
        p.plan(makePolybench(PolybenchKernel::Gemm, 64));
    expectIdentical(cfg, s, "gemm electrical");
}

/**
 * The planner's dependency wiring for chained ops: the second
 * matmul consumes a produced B, so its gathers carry depA pointing
 * at the first op's final collect, and both executors must agree on
 * the resulting timing at the levels where assembly happens.
 */
TEST(ExecutorCrossValidation, ChainedMatMulProducedBAssembly)
{
    TaskGraph g;
    auto a0 = g.addMatrix("A0", 40, 40);
    auto b0 = g.addMatrix("B0", 40, 40);
    auto b1 = g.addMatrix("B1", 40, 40);
    auto a1 = g.addMatrix("A1", 40, 40);
    auto c = g.addMatrix("C", 40, 40);
    g.addOp(MatOpKind::MatMul, a0, b0, b1);
    g.addOp(MatOpKind::MatMul, a1, b1, c);

    for (OptLevel level : {OptLevel::Distribute, OptLevel::Unblock}) {
        SystemConfig cfg = SystemConfig::paperDefault();
        cfg.optLevel = level;
        Planner p(cfg);
        VpcSchedule s = p.plan(g);
        expectIdentical(cfg, s, optLevelName(level));
    }
}

/**
 * Element-wise vector chains: the adds carry both copy
 * dependencies (depA and depB) after the planner fix; both
 * executors must process the dual-dependency batches identically.
 */
TEST(ExecutorCrossValidation, VectorAddChainsWithDualCopyDeps)
{
    TaskGraph g;
    auto x = g.addMatrix("x", 3000, 1);
    auto y = g.addMatrix("y", 3000, 1);
    auto z = g.addMatrix("z", 3000, 1);
    auto w = g.addMatrix("w", 3000, 1);
    g.addOp(MatOpKind::MatAdd, x, y, z);
    g.addOp(MatOpKind::MatAdd, z, x, w);

    for (OptLevel level : {OptLevel::Distribute, OptLevel::Unblock}) {
        SystemConfig cfg = SystemConfig::paperDefault();
        cfg.optLevel = level;
        Planner p(cfg);
        VpcSchedule s = p.plan(g);
        expectIdentical(cfg, s, optLevelName(level));
    }
}

/** Random schedule generator: arbitrary kinds, subarrays, batched
 * counts, backward dependencies and occasional barriers. */
VpcSchedule
randomSchedule(Rng &rng, const SystemConfig &cfg, unsigned batches)
{
    VpcSchedule s;
    for (unsigned i = 0; i < batches; ++i) {
        VpcBatch b;
        switch (rng.below(4)) {
          case 0: b.kind = VpcKind::Mul; break;
          case 1: b.kind = VpcKind::Smul; break;
          case 2: b.kind = VpcKind::Add; break;
          default: b.kind = VpcKind::Tran; break;
        }
        b.subarray =
            std::uint32_t(rng.below(cfg.rm.totalSubarrays()));
        b.dstSubarray =
            std::uint32_t(rng.below(cfg.rm.totalSubarrays()));
        b.vpcCount = 1 + std::uint32_t(rng.below(8));
        b.vectorLen = 1 + std::uint32_t(rng.below(300));
        if (i > 0 && rng.below(3) == 0)
            b.depA = std::uint32_t(rng.below(i));
        if (i > 1 && rng.below(5) == 0)
            b.depB = std::uint32_t(rng.below(i));
        b.barrier = rng.below(16) == 0;
        s.push(b);
    }
    return s;
}

class RandomScheduleSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(RandomScheduleSweep, SweepMatchesReference)
{
    Rng rng(GetParam() * 7919 + 13);
    for (OptLevel level : {OptLevel::Distribute, OptLevel::Unblock}) {
        SystemConfig cfg = SystemConfig::paperDefault();
        cfg.optLevel = level;
        VpcSchedule s = randomSchedule(rng, cfg, 200);
        Executor fast(cfg);
        EventExecutor reference(cfg);
        ExecutionReport a = fast.run(s);
        EventExecutionResult b = reference.run(s);
        ASSERT_EQ(a.makespan, b.makespan)
            << "seed " << GetParam() << " level "
            << optLevelName(level);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomScheduleSweep,
                         ::testing::Range(0u, 12u));

/**
 * Schedules of long affine runs (with barriers and flag flips that
 * break them): the sweep executor walks the descriptors, the
 * reference walks the same expansion, and every batch must complete
 * at the same tick in both.
 */
class LongRunSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(LongRunSweep, SweepMatchesReferencePerBatch)
{
    Rng rng(GetParam() * 6151 + 29);
    for (OptLevel level : {OptLevel::Distribute, OptLevel::Unblock}) {
        SystemConfig cfg = SystemConfig::paperDefault();
        cfg.optLevel = level;
        VpcSchedule s;
        for (const VpcBatch &b :
             runHeavyBatches(rng, 1500, cfg.rm.totalSubarrays()))
            s.push(b);
        ASSERT_LT(s.batches.size(), s.batchCount() / 4);
        EventExecutionResult ref = EventExecutor(cfg).run(s);
        Executor fast(cfg);
        ASSERT_EQ(fast.run(s).makespan, ref.makespan)
            << "seed " << GetParam() << " level "
            << optLevelName(level);

        // Per batch: the makespan of every prefix ending inside a
        // run equals the reference's latest completion up to it.
        for (std::uint32_t k : {1u, 37u, 500u, 1499u}) {
            VpcSchedule prefix;
            s.forEachBatch([&](std::uint32_t i, const VpcBatch &b) {
                if (i < k)
                    prefix.push(b);
            });
            Tick expect = 0;
            for (std::uint32_t i = 0; i < k; ++i)
                expect = std::max(expect, ref.batchDone[i]);
            EXPECT_EQ(fast.run(prefix).makespan, expect) << k;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LongRunSweep,
                         ::testing::Range(0u, 6u));

TEST(ExecutorCrossValidation, BatchCompletionTimesAgree)
{
    // Beyond the makespan: per-batch completion times must match,
    // which pins the internal resource interleavings.
    SystemConfig cfg = SystemConfig::paperDefault();
    Rng rng(424242);
    VpcSchedule s = randomSchedule(rng, cfg, 64);
    EventExecutor reference(cfg);
    EventExecutionResult ref = reference.run(s);

    // Re-run through the sweep executor batch prefix by prefix: the
    // makespan of the first k batches equals the max completion of
    // those batches in the reference run.
    Executor fast(cfg);
    for (std::size_t k : {std::size_t(1), s.batchCount() / 2,
                          s.batchCount()}) {
        VpcSchedule prefix;
        s.forEachBatch([&](std::uint32_t i, const VpcBatch &b) {
            if (i < k)
                prefix.push(b);
        });
        Tick expect = 0;
        for (std::size_t i = 0; i < k; ++i)
            expect = std::max(expect, ref.batchDone[i]);
        EXPECT_EQ(fast.run(prefix).makespan, expect) << k;
    }
}

/** The first @p k logical batches of @p s, pushed one by one. */
VpcSchedule
prefixOf(const VpcSchedule &s, std::uint32_t k)
{
    VpcSchedule prefix;
    s.forEachBatch([&](std::uint32_t i, const VpcBatch &b) {
        if (i < k)
            prefix.push(b);
    });
    return prefix;
}

/**
 * Paper-scale schedules, cut to the first 100,000 logical batches so
 * the event-driven reference can hold them: 2-layer BERT, the fig23
 * MLP and gemm dim-2000 at Distribute, whose full schedules have the
 * longest dependency distances of the paper runs (129, 324 and
 * 1,025). The sweep executor must match the reference on the prefix
 * and on two shorter sub-prefixes.
 */
TEST(ExecutorCrossValidation, PaperSchedulePrefixesMatchReference)
{
    BertConfig bert;
    bert.layers = 2;
    struct Case
    {
        const char *name;
        TaskGraph graph;
        OptLevel level;
        std::uint64_t window;
    };
    const Case cases[] = {
        {"bert-2", makeBert(bert), OptLevel::Unblock, 129},
        {"mlp", makeMlp(MlpConfig{}), OptLevel::Unblock, 324},
        {"gemm-2000", makePolybench(PolybenchKernel::Gemm, 2000),
         OptLevel::Distribute, 1025},
    };
    for (const Case &c : cases) {
        SystemConfig cfg = SystemConfig::paperDefault();
        cfg.optLevel = c.level;
        const VpcSchedule s = Planner(cfg).plan(c.graph);
        EXPECT_EQ(s.maxDepDistance(), c.window) << c.name;

        const VpcSchedule prefix = prefixOf(s, 100000);
        ASSERT_EQ(prefix.batchCount(), 100000u) << c.name;
        const EventExecutionResult ref = EventExecutor(cfg).run(prefix);
        Executor fast(cfg);
        EXPECT_EQ(fast.run(prefix).makespan, ref.makespan) << c.name;
        for (std::uint32_t k : {1000u, 30000u}) {
            Tick expect = 0;
            for (std::uint32_t i = 0; i < k; ++i)
                expect = std::max(expect, ref.batchDone[i]);
            EXPECT_EQ(fast.run(prefixOf(prefix, k)).makespan, expect)
                << c.name << " " << k;
        }
    }
}

/** Both executors agree on @p s; its longest distance is @p window. */
void
expectWindowed(const VpcSchedule &s, std::uint64_t window,
               const char *what)
{
    EXPECT_EQ(s.maxDepDistance(), window) << what;
    const SystemConfig cfg = SystemConfig::paperDefault();
    expectIdentical(cfg, s, what);
}

TEST(DependencyWindow, DistanceGrowingAlongARun)
{
    // 3,000 batches that all wait for batch 0, in runs with depA
    // step 0, so the distance grows along each run and only a run's
    // far end bounds it. Short adds take every subarray but 0, then
    // long multiplies reuse them from subarray 1: a stale slot 0
    // would make every later multiply wait for the first one.
    const std::uint32_t subarrays =
        SystemConfig::paperDefault().rm.totalSubarrays();
    VpcSchedule s;
    VpcBatch head;
    head.vpcCount = 8;
    head.vectorLen = 300;
    s.push(head);
    VpcBatch b;
    b.depA = 0;
    for (std::uint32_t i = 1; i < 3000; ++i) {
        const bool add = i < subarrays;
        b.kind = add ? VpcKind::Add : VpcKind::Mul;
        b.vpcCount = add ? 1 : 8;
        b.vectorLen = add ? 16 : 300;
        b.subarray = add ? i : i - subarrays + 1;
        s.push(b);
    }
    ASSERT_EQ(s.batches.size(), 3u);
    EXPECT_EQ(s.batches[1].depAStep, 0);
    EXPECT_EQ(s.batches[2].depAStep, 0);
    expectWindowed(s, 2999, "growing distance");
}

TEST(DependencyWindow, PowerOfTwoDistance)
{
    // Batch i waits for batch i - 1,024 on another subarray, with
    // shapes that vary so every completion tick differs.
    const std::uint32_t subarrays =
        SystemConfig::paperDefault().rm.totalSubarrays();
    VpcSchedule s;
    for (std::uint32_t i = 0; i < 4096; ++i) {
        VpcBatch b;
        b.kind = i % 3 == 0 ? VpcKind::Tran : VpcKind::Mul;
        b.subarray = (i * 37) % subarrays;
        b.dstSubarray = (i * 53 + 1) % subarrays;
        b.vpcCount = 1 + i % 5;
        b.vectorLen = 1 + (i * 97) % 300;
        if (i >= 1024)
            b.depA = i - 1024;
        if (i % 7 == 0 && i > 0)
            b.depB = i - 1;
        s.push(b);
    }
    expectWindowed(s, 1024, "distance 1024");
}

TEST(DependencyWindow, EmptyAndOneBatchSchedules)
{
    expectWindowed(VpcSchedule{}, 0, "empty");
    VpcSchedule one;
    VpcBatch b;
    b.vectorLen = 64;
    one.push(b);
    expectWindowed(one, 0, "one batch");
    EXPECT_GT(Executor(SystemConfig::paperDefault()).run(one).makespan,
              0u);
}

} // namespace
} // namespace streampim
