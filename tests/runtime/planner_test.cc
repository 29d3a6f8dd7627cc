/**
 * @file
 * Tests for the planner: placement sets, schedule well-formedness,
 * VPC counts and the semantics of the three optimization levels.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/executor.hh"
#include "runtime/planner.hh"
#include "support/schedules.hh"
#include "workloads/polybench.hh"

namespace streampim
{
namespace
{

SystemConfig
cfgWith(OptLevel level)
{
    SystemConfig cfg = SystemConfig::paperDefault();
    cfg.optLevel = level;
    return cfg;
}

TaskGraph
tinyMatVec(unsigned rows = 64, unsigned cols = 48)
{
    TaskGraph g;
    g.name = "mv";
    auto a = g.addMatrix("A", rows, cols);
    auto x = g.addMatrix("x", cols, 1);
    auto y = g.addMatrix("y", rows, 1);
    g.addOp(MatOpKind::MatVec, a, x, y);
    return g;
}

/** Every dependency must point to an earlier batch. */
void
checkWellFormed(const VpcSchedule &s, const SystemConfig &cfg)
{
    const std::vector<VpcBatch> batches = expandedBatches(s);
    for (std::size_t i = 0; i < batches.size(); ++i) {
        const VpcBatch &b = batches[i];
        if (b.depA != kNoBatch) {
            EXPECT_LT(b.depA, i);
        }
        if (b.depB != kNoBatch) {
            EXPECT_LT(b.depB, i);
        }
        EXPECT_LT(b.subarray, cfg.rm.totalSubarrays());
        if (b.kind == VpcKind::Tran) {
            EXPECT_LT(b.dstSubarray, cfg.rm.totalSubarrays());
        }
        EXPECT_GT(b.vpcCount, 0u);
        EXPECT_GT(b.vectorLen, 0u);
    }
}

TEST(Planner, BaseUsesOneSubarray)
{
    SystemConfig cfg = cfgWith(OptLevel::Base);
    Planner p(cfg);
    EXPECT_EQ(p.computeSet().size(), 1u);
    VpcSchedule s = p.plan(tinyMatVec());
    checkWellFormed(s, cfg);
    for (const auto &b : expandedBatches(s)) {
        if (isPimVpc(b.kind)) {
            EXPECT_EQ(b.subarray, p.computeSet()[0]);
        }
    }
}

TEST(Planner, DistributeUsesAllPimSubarrays)
{
    SystemConfig cfg = cfgWith(OptLevel::Distribute);
    Planner p(cfg);
    EXPECT_EQ(p.computeSet().size(), cfg.rm.pimSubarrays());
    // Staging overlaps the compute set (the distribute flaw).
    EXPECT_EQ(p.stagingSet().size(), 1u);
    EXPECT_EQ(p.stagingSet()[0], p.computeSet()[0]);
}

TEST(Planner, UnblockStagingIsDisjointFromCompute)
{
    SystemConfig cfg = cfgWith(OptLevel::Unblock);
    Planner p(cfg);
    std::set<std::uint32_t> compute(p.computeSet().begin(),
                                    p.computeSet().end());
    for (auto s : p.stagingSet())
        EXPECT_EQ(compute.count(s), 0u)
            << "staging subarray " << s << " inside compute set";
}

TEST(Planner, PimVpcCountForMatVec)
{
    // One MUL VPC per output row regardless of opt level.
    for (OptLevel level : {OptLevel::Base, OptLevel::Distribute,
                           OptLevel::Unblock}) {
        SystemConfig cfg = cfgWith(level);
        Planner p(cfg);
        VpcSchedule s = p.plan(tinyMatVec(100, 40));
        EXPECT_EQ(s.pimVpcs(), 100u) << optLevelName(level);
        checkWellFormed(s, cfg);
    }
}

TEST(Planner, MatMulCountsOneDotPerOutput)
{
    TaskGraph g;
    auto a = g.addMatrix("A", 30, 20);
    auto b = g.addMatrix("B", 20, 25);
    auto c = g.addMatrix("C", 30, 25);
    g.addOp(MatOpKind::MatMul, a, b, c);
    Planner p(cfgWith(OptLevel::Unblock));
    VpcSchedule s = p.plan(g);
    EXPECT_EQ(s.pimVpcs(), 30u * 25u);
}

TEST(Planner, ComputeBatchesDependOnTheirCopies)
{
    SystemConfig cfg = cfgWith(OptLevel::Unblock);
    Planner p(cfg);
    VpcSchedule s = p.plan(tinyMatVec());
    const std::vector<VpcBatch> batches = expandedBatches(s);
    for (const auto &b : batches) {
        if (b.kind != VpcKind::Mul)
            continue;
        ASSERT_NE(b.depA, kNoBatch);
        const VpcBatch &dep = batches[b.depA];
        EXPECT_EQ(dep.kind, VpcKind::Tran);
        EXPECT_EQ(dep.dstSubarray, b.subarray);
    }
}

TEST(Planner, DistributePairsComputeWithCollect)
{
    // The naive order: every MUL batch is immediately followed by
    // the TRAN collecting its results (the head-of-line trigger).
    SystemConfig cfg = cfgWith(OptLevel::Distribute);
    Planner p(cfg);
    VpcSchedule s = p.plan(tinyMatVec(512, 64));
    const std::vector<VpcBatch> batches = expandedBatches(s);
    for (std::size_t i = 0; i < batches.size(); ++i) {
        if (batches[i].kind != VpcKind::Mul)
            continue;
        ASSERT_LT(i + 1, batches.size());
        const VpcBatch &next = batches[i + 1];
        EXPECT_EQ(next.kind, VpcKind::Tran);
        EXPECT_EQ(next.depA, std::uint32_t(i));
        EXPECT_EQ(next.subarray, batches[i].subarray);
    }
}

TEST(Planner, UnblockSeparatesComputeAndCollectPhases)
{
    SystemConfig cfg = cfgWith(OptLevel::Unblock);
    Planner p(cfg);
    VpcSchedule s = p.plan(tinyMatVec(512, 64));
    // Under unblock, no MUL batch is immediately followed by its
    // own collect.
    const std::vector<VpcBatch> batches = expandedBatches(s);
    for (std::size_t i = 0; i + 1 < batches.size(); ++i) {
        if (batches[i].kind != VpcKind::Mul)
            continue;
        const VpcBatch &next = batches[i + 1];
        if (next.kind == VpcKind::Tran) {
            EXPECT_NE(next.depA, std::uint32_t(i));
        }
    }
}

TEST(Planner, SlicingSplitsOversizedVectors)
{
    SystemConfig cfg = cfgWith(OptLevel::Unblock);
    cfg.maxVpcElements = 16;
    Planner p(cfg);
    VpcSchedule s = p.plan(tinyMatVec(4, 50)); // 50 > 16
    EXPECT_GT(p.stats().slicedVpcs, 0u);
    for (const auto &b : expandedBatches(s)) {
        if (isPimVpc(b.kind)) {
            EXPECT_LE(b.vectorLen, 16u);
        }
    }
    checkWellFormed(s, cfg);
}

TEST(Planner, StatsMatchScheduleCounters)
{
    SystemConfig cfg = cfgWith(OptLevel::Unblock);
    Planner p(cfg);
    TaskGraph g = makePolybench(PolybenchKernel::Atax, 64);
    VpcSchedule s = p.plan(g);
    EXPECT_EQ(p.stats().pimVpcs, s.pimVpcs());
    EXPECT_EQ(p.stats().moveVpcs, s.moveVpcs());
    EXPECT_EQ(p.stats().batches, s.batchCount());
}

TEST(Planner, EveryPolybenchKernelLowersCleanly)
{
    for (OptLevel level : {OptLevel::Base, OptLevel::Distribute,
                           OptLevel::Unblock}) {
        SystemConfig cfg = cfgWith(level);
        Planner p(cfg);
        for (PolybenchKernel k : allPolybenchKernels()) {
            TaskGraph g = makePolybench(k, 32);
            VpcSchedule s = p.plan(g);
            EXPECT_GT(s.pimVpcs(), 0u) << polybenchName(k);
            checkWellFormed(s, cfg);
        }
    }
}

/** Two chained matmuls: the second consumes a *produced* B, whose
 * columns must first be assembled (gathered) on their stream homes. */
TaskGraph
chainedMatMuls(unsigned n = 32)
{
    TaskGraph g;
    g.name = "mm-chain";
    auto a0 = g.addMatrix("A0", n, n);
    auto b0 = g.addMatrix("B0", n, n);
    auto b1 = g.addMatrix("B1", n, n);
    auto a1 = g.addMatrix("A1", n, n);
    auto c = g.addMatrix("C", n, n);
    g.addOp(MatOpKind::MatMul, a0, b0, b1);
    g.addOp(MatOpKind::MatMul, a1, b1, c);
    return g;
}

/** Regression (matmul result tracking): the batch recorded as
 * publishing a matmul's result must be the final collect TRAN that
 * lands C on its home — not the last compute batch. */
TEST(PlannerRegression, MatMulResultIsPublishedByFinalCollect)
{
    for (OptLevel level : {OptLevel::Base, OptLevel::Distribute,
                           OptLevel::Unblock}) {
        SystemConfig cfg = cfgWith(level);
        Planner p(cfg);
        TaskGraph g = chainedMatMuls();
        VpcSchedule s = p.plan(g);
        ASSERT_EQ(s.opResultBatch.size(), g.ops.size());

        const std::uint32_t pub = s.opResultBatch[0];
        ASSERT_NE(pub, kNoBatch);
        const std::vector<VpcBatch> batches = expandedBatches(s);
        const VpcBatch &b = batches[pub];
        EXPECT_EQ(b.kind, VpcKind::Tran) << optLevelName(level);
        // The collect lands on B1's home subarray.
        const std::uint32_t home =
            p.stagingSet()[g.ops[0].c % p.stagingSet().size()];
        EXPECT_EQ(b.dstSubarray, home) << optLevelName(level);
    }
}

/** Regression (matmul result tracking): gathers assembling a
 * produced B must depend on the producing op's final collect. */
TEST(PlannerRegression, ProducedBAssemblyWaitsForCollects)
{
    SystemConfig cfg = cfgWith(OptLevel::Distribute);
    Planner p(cfg);
    VpcSchedule s = p.plan(chainedMatMuls());
    const std::uint32_t pub = s.opResultBatch[0];

    // Every batch of the second op that reads B1 from its
    // row-distributed placement (the gathers) depends on the final
    // collect of the first op.
    unsigned gathers_checked = 0;
    const std::vector<VpcBatch> batches = expandedBatches(s);
    for (std::uint32_t i = pub + 1; i < batches.size(); ++i) {
        const VpcBatch &b = batches[i];
        if (b.kind != VpcKind::Tran || b.vectorLen != 1)
            continue; // not a per-element gather
        if (b.depA == kNoBatch)
            continue;
        if (batches[b.depA].kind == VpcKind::Mul)
            continue; // a collect of the second op itself
        EXPECT_EQ(b.depA, pub);
        gathers_checked++;
        if (gathers_checked > 8)
            break;
    }
    EXPECT_GT(gathers_checked, 0u);
}

/**
 * Regression (matmul result tracking), behavioral: a downstream
 * consumer synchronizing on the recorded publication batch must wait
 * for the collects to land. Appending such a consumer to the
 * schedule yields a strictly longer makespan than wiring it the
 * pre-fix way (to the last compute batch) — so this test fails when
 * opResultBatch records the last compute instead of the collect.
 */
TEST(PlannerRegression, ConsumerOfResultBatchExtendsMakespan)
{
    SystemConfig cfg = cfgWith(OptLevel::Distribute);
    Planner p(cfg);
    TaskGraph g;
    g.name = "mm";
    auto a = g.addMatrix("A", 32, 32);
    auto b = g.addMatrix("B", 32, 32);
    auto c = g.addMatrix("C", 32, 32);
    g.addOp(MatOpKind::MatMul, a, b, c);
    VpcSchedule s = p.plan(g);
    const std::uint32_t pub = s.opResultBatch[0];
    std::uint32_t last_mul = kNoBatch;
    s.forEachBatch([&last_mul](std::uint32_t i, const VpcBatch &b) {
        if (b.kind == VpcKind::Mul)
            last_mul = i;
    });
    ASSERT_NE(last_mul, kNoBatch);

    // A downstream compute consuming C, placed on a compute slot,
    // synchronized the way the planner synchronizes consumers: on
    // the publication batch.
    auto with_probe = [&](std::uint32_t dep) {
        VpcSchedule probe = s;
        VpcBatch b;
        b.kind = VpcKind::Mul;
        b.subarray = p.computeSet().back();
        b.vpcCount = 1;
        b.vectorLen = 8;
        b.depA = dep;
        probe.push(b);
        Executor ex(cfg);
        return ex.run(probe).makespan;
    };
    // Pre-fix the planner recorded last_mul, so both wirings were
    // the same batch and the makespans were equal.
    EXPECT_NE(pub, last_mul);
    EXPECT_GT(with_probe(pub), with_probe(last_mul));
}

/** Regression (element-wise vector ops): the compute batch must
 * depend on the copies of *both* operands, not only on b's. */
TEST(PlannerRegression, VectorAddDependsOnBothOperandCopies)
{
    // Unblock gives a and b distinct home subarrays, making the two
    // copies distinguishable.
    SystemConfig cfg = cfgWith(OptLevel::Unblock);
    Planner p(cfg);
    TaskGraph g;
    auto x = g.addMatrix("x", 2000, 1);
    auto y = g.addMatrix("y", 2000, 1);
    auto z = g.addMatrix("z", 2000, 1);
    g.addOp(MatOpKind::MatAdd, x, y, z);
    VpcSchedule s = p.plan(g);

    const auto &staging = p.stagingSet();
    const std::uint32_t home_x = staging[x % staging.size()];
    const std::uint32_t home_y = staging[y % staging.size()];
    ASSERT_NE(home_x, home_y);

    // Only the first slice of each chunk's compute carries the copy
    // dependencies (later slices chain on their predecessor), so
    // look at Adds whose depA is a transfer.
    unsigned adds = 0;
    const std::vector<VpcBatch> batches = expandedBatches(s);
    for (const auto &b : batches) {
        if (b.kind != VpcKind::Add || b.depA == kNoBatch ||
            batches[b.depA].kind != VpcKind::Tran)
            continue;
        const VpcBatch &ca = batches[b.depA];
        ASSERT_NE(b.depB, kNoBatch);
        const VpcBatch &cb = batches[b.depB];
        EXPECT_EQ(cb.kind, VpcKind::Tran);
        EXPECT_EQ(ca.subarray, home_x);
        EXPECT_EQ(cb.subarray, home_y);
        EXPECT_EQ(ca.dstSubarray, b.subarray);
        EXPECT_EQ(cb.dstSubarray, b.subarray);
        adds++;
    }
    EXPECT_GT(adds, 1u);
}

/** opResultBatch is filled for every op and points at real batches. */
TEST(Planner, OpResultBatchWellFormed)
{
    for (OptLevel level : {OptLevel::Base, OptLevel::Distribute,
                           OptLevel::Unblock}) {
        SystemConfig cfg = cfgWith(level);
        Planner p(cfg);
        for (PolybenchKernel k : allPolybenchKernels()) {
            TaskGraph g = makePolybench(k, 32);
            VpcSchedule s = p.plan(g);
            ASSERT_EQ(s.opResultBatch.size(), g.ops.size());
            for (std::size_t i = 0; i < g.ops.size(); ++i) {
                if (g.ops[i].kind == MatOpKind::Nonlinear) {
                    EXPECT_EQ(s.opResultBatch[i], kNoBatch);
                    continue;
                }
                ASSERT_LT(s.opResultBatch[i], s.batchCount());
            }
        }
    }
}

TEST(Planner, PlanRecoveryEmitsRecoveryFlaggedTrans)
{
    SystemConfig cfg = cfgWith(OptLevel::Distribute);
    Planner p(cfg);
    VpcSchedule s = p.planRecovery({{0, 2}, {1, 3}}, 4096);
    const std::vector<VpcBatch> batches = expandedBatches(s);
    ASSERT_EQ(batches.size(), 2u);
    for (const VpcBatch &b : batches) {
        EXPECT_EQ(b.kind, VpcKind::Tran);
        EXPECT_TRUE(b.recovery);
        EXPECT_EQ(b.vpcCount, 1u);
        EXPECT_EQ(b.vectorLen, 4096u);
        EXPECT_EQ(b.depA, kNoBatch);
        EXPECT_EQ(b.depB, kNoBatch);
    }
    EXPECT_EQ(batches[0].subarray, 0u);
    EXPECT_EQ(batches[0].dstSubarray, 2u);
    EXPECT_EQ(batches[1].subarray, 1u);
    EXPECT_EQ(batches[1].dstSubarray, 3u);
    EXPECT_EQ(s.moveVpcs(), 2u);
    EXPECT_EQ(s.pimVpcs(), 0u);
}

TEST(PlannerDeath, PlanRecoveryRejectsDegenerateMoves)
{
    SystemConfig cfg = cfgWith(OptLevel::Distribute);
    Planner p(cfg);
    EXPECT_DEATH(p.planRecovery({{2, 2}}, 4096), "source");
    EXPECT_DEATH(p.planRecovery({{0, 1}}, 0), "zero bytes");
}

TEST(ScheduleDeath, ForwardDependencyPanics)
{
    VpcSchedule s;
    VpcBatch b;
    b.kind = VpcKind::Mul;
    b.vectorLen = 1;
    b.depA = 5; // no such batch yet
    EXPECT_DEATH(s.push(b), "future");
}

} // namespace
} // namespace streampim
