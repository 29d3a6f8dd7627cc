/**
 * @file
 * Tiler grid math and the planner's streaming tiled lowering.
 */

#include <gtest/gtest.h>

#include "core/executor.hh"
#include "runtime/planner.hh"
#include "runtime/tiler.hh"
#include "support/schedules.hh"

namespace streampim
{
namespace
{

TEST(Tiler, TileEdgeForBudgetIsLargestFittingPowerOfTwo)
{
    // Edge T needs (2T)^2 * bpe bytes: T=256 at the 256 KiB mat
    // capacity with the timed footprint of 4 B/element.
    EXPECT_EQ(Tiler::tileEdgeForBudget(256 * 1024, 4), 256u);
    EXPECT_EQ(Tiler::tileEdgeForBudget(16 * 1024, 8), 32u);
    // Degenerate budgets still yield a usable edge.
    EXPECT_EQ(Tiler::tileEdgeForBudget(1, 4), 1u);
}

TEST(Tiler, TileEdgeBudgetBelowOneMinimalTileFloorsAtOne)
{
    // Edge 1 needs (2*1)^2 * bpe = 4*bpe bytes. Budgets strictly
    // below that cannot hold even the minimal tile, but the edge
    // floors at 1 (a usable, if oversubscribed, tile) rather than
    // returning 0 and breaking every downstream division.
    EXPECT_EQ(Tiler::tileEdgeForBudget(4 * 4 - 1, 4), 1u);
    EXPECT_EQ(Tiler::tileEdgeForBudget(0, 8), 1u);
    EXPECT_EQ(Tiler::tileEdgeForBudget(3, 1), 1u);
    // At exactly 4*bpe the minimal tile fits and doubles once.
    EXPECT_EQ(Tiler::tileEdgeForBudget(4 * 1, 1), 2u);
}

TEST(Tiler, TileEdgeDoublesAtExactCapacityThreshold)
{
    // The loop doubles while (2*edge)^2 * bpe <= budget, so a
    // budget exactly equal to the doubled edge's footprint still
    // takes the doubling — the threshold is inclusive.
    // (2*4)^2 * 8 = 512: edge 4 at 511, edge 8 at 512.
    EXPECT_EQ(Tiler::tileEdgeForBudget(511, 8), 4u);
    EXPECT_EQ(Tiler::tileEdgeForBudget(512, 8), 8u);
    // One byte past the threshold does not reach the next power.
    EXPECT_EQ(Tiler::tileEdgeForBudget(513, 8), 8u);
    // The same inclusivity at the operating point the functional
    // geometry uses (8 B/elem): doubling 16 -> 32 needs
    // (2*16)^2 * 8 = 8192 bytes, inclusively.
    EXPECT_EQ(Tiler::tileEdgeForBudget(8192 - 1, 8), 16u);
    EXPECT_EQ(Tiler::tileEdgeForBudget(8192, 8), 32u);
}

TEST(Tiler, DefaultGeometryDerivesMatSizedTiles)
{
    SystemConfig cfg;
    Tiler tiler(cfg);
    EXPECT_EQ(tiler.tileBudgetBytes(), cfg.rm.matBytes);
    EXPECT_EQ(tiler.capacityBytes(),
              2 * cfg.rm.bytesPerSubarray());

    MatmulTiling t = tiler.tile(4096, 4096, 4096);
    EXPECT_EQ(t.tileRows, 256u);
    EXPECT_EQ(t.tileK, 256u);
    EXPECT_EQ(t.tileCols, 256u);
    EXPECT_EQ(t.iTiles, 16u);
    EXPECT_EQ(t.kTiles, 16u);
    EXPECT_EQ(t.jTiles, 16u);
    EXPECT_EQ(t.tasks(), 4096u);
    EXPECT_FALSE(t.trivial());
}

TEST(Tiler, RemainderTilesCoverTheProblemExactly)
{
    SystemConfig cfg;
    TilerConfig tc;
    tc.tileRows = tc.tileCols = tc.tileK = 100;
    Tiler tiler(cfg, tc);

    MatmulTiling t = tiler.tile(250, 100, 301);
    EXPECT_EQ(t.iTiles, 3u);
    EXPECT_EQ(t.kTiles, 1u);
    EXPECT_EQ(t.jTiles, 4u);
    EXPECT_EQ(t.rowsOf(0), 100u);
    EXPECT_EQ(t.rowsOf(2), 50u);
    EXPECT_EQ(t.colsOf(3), 1u);

    std::uint64_t rows = 0;
    for (std::uint32_t i = 0; i < t.iTiles; ++i)
        rows += t.rowsOf(i);
    EXPECT_EQ(rows, 250u);
    std::uint64_t cols = 0;
    for (std::uint32_t j = 0; j < t.jTiles; ++j)
        cols += t.colsOf(j);
    EXPECT_EQ(cols, 301u);
}

TEST(Tiler, TileDimsClampToTheProblemShape)
{
    SystemConfig cfg;
    MatmulTiling t = Tiler(cfg).tile(8, 5000, 3);
    EXPECT_EQ(t.tileRows, 8u);
    EXPECT_EQ(t.tileCols, 3u);
    EXPECT_EQ(t.tileK, 256u);
    EXPECT_EQ(t.iTiles, 1u);
    EXPECT_EQ(t.jTiles, 1u);
    EXPECT_EQ(t.kTiles, (5000u + 255) / 256);
}

TEST(Tiler, NeedsTilingTriggersOnAnyOversizeOperand)
{
    SystemConfig cfg;
    Tiler tiler(cfg);
    // Paper-scale polybench shapes (dim 2000) all fit untiled.
    EXPECT_FALSE(tiler.needsTiling(2000, 2600, 2300));
    // 4096^3: every operand is 16 MiB > the 8 MiB threshold.
    EXPECT_TRUE(tiler.needsTiling(4096, 4096, 4096));
    // A single oversize operand suffices (here C = n*m).
    EXPECT_TRUE(tiler.needsTiling(4096, 2, 4096));
}

TEST(Tiler, MarkedOpsTileRegardlessOfShape)
{
    SystemConfig cfg;
    Tiler tiler(cfg);
    TaskGraph g;
    auto a = g.addMatrix("A", 8, 8);
    auto b = g.addMatrix("B", 8, 8);
    auto c = g.addMatrix("C", 8, 8);
    g.addTiledMatmul(a, b, c);
    EXPECT_TRUE(tiler.needsTiling(g, g.ops.front()));

    TaskGraph h;
    auto ha = h.addMatrix("A", 8, 8);
    auto hb = h.addMatrix("B", 8, 8);
    auto hc = h.addMatrix("C", 8, 8);
    h.addOp(MatOpKind::MatMul, ha, hb, hc);
    EXPECT_FALSE(tiler.needsTiling(h, h.ops.front()));
}

TEST(PlannerTiled, OutOfCoreMatmulPlansAndExecutes)
{
    SystemConfig cfg;
    Planner planner(cfg);
    VpcSchedule sched = planner.planTiledMatmul(4096, 4096, 4096);
    EXPECT_EQ(planner.stats().tiledMatmuls, 1u);
    EXPECT_EQ(planner.stats().tileTasks, 4096u);
    EXPECT_GT(sched.batchCount(), 0u);

    Executor exec(cfg);
    ExecutionReport rep = exec.run(sched);
    EXPECT_GT(rep.makespan, 0u);
}

TEST(PlannerTiled, DoubleBufferingBeatsSingleBuffering)
{
    SystemConfig cfg;
    Executor exec(cfg);

    Planner db(cfg);
    ExecutionReport rep_db =
        exec.run(db.planTiledMatmul(1024, 1024, 1024));

    Planner sb(cfg);
    TilerConfig tc;
    tc.doubleBuffer = false;
    sb.setTilerConfig(tc);
    ExecutionReport rep_sb =
        exec.run(sb.planTiledMatmul(1024, 1024, 1024));

    EXPECT_LT(rep_db.makespan, rep_sb.makespan);

    // Overlap ratio: staged transfers hide under compute when
    // double-buffered.
    auto overlap = [](const ExecutionReport &r) {
        const double ex = double(r.breakdown.exclusiveTransfer);
        const double ov = double(r.breakdown.overlapped);
        return ov / (ov + ex);
    };
    EXPECT_GT(overlap(rep_db), overlap(rep_sb));
}

TEST(PlannerTiled, PlanRoutesOversizeMatmulsAutomatically)
{
    SystemConfig cfg;
    Planner planner(cfg);

    TaskGraph big;
    auto a = big.addMatrix("A", 4096, 4096);
    auto b = big.addMatrix("B", 4096, 4096);
    auto c = big.addMatrix("C", 4096, 4096);
    big.addOp(MatOpKind::MatMul, a, b, c); // not marked tiled
    planner.plan(big);
    EXPECT_EQ(planner.stats().tiledMatmuls, 1u);
    EXPECT_GT(planner.stats().tileTasks, 1u);
}

TEST(PlannerTiled, PaperDimKernelsStayUntiled)
{
    // The Table IV counts pin the untiled plans at dim 2000; the
    // tiler must not capture them.
    SystemConfig cfg;
    Planner planner(cfg);
    TaskGraph g;
    auto a = g.addMatrix("A", 2000, 2600);
    auto b = g.addMatrix("B", 2600, 2300);
    auto c = g.addMatrix("C", 2000, 2300);
    g.addOp(MatOpKind::MatMul, a, b, c);
    planner.plan(g);
    EXPECT_EQ(planner.stats().tiledMatmuls, 0u);
    EXPECT_EQ(planner.stats().tileTasks, 0u);
}

TEST(PlannerTiled, SchedulesAreDeterministic)
{
    SystemConfig cfg;
    Planner planner(cfg);
    VpcSchedule s1 = planner.planTiledMatmul(777, 513, 1030);
    VpcSchedule s2 = planner.planTiledMatmul(777, 513, 1030);
    const std::vector<VpcBatch> b1 = expandedBatches(s1);
    const std::vector<VpcBatch> b2 = expandedBatches(s2);
    ASSERT_EQ(b1.size(), b2.size());
    for (std::size_t i = 0; i < b1.size(); ++i) {
        const VpcBatch &x = b1[i];
        const VpcBatch &y = b2[i];
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.subarray, y.subarray);
        EXPECT_EQ(x.dstSubarray, y.dstSubarray);
        EXPECT_EQ(x.vpcCount, y.vpcCount);
        EXPECT_EQ(x.vectorLen, y.vectorLen);
        EXPECT_EQ(x.depA, y.depA);
        EXPECT_EQ(x.depB, y.depB);
    }
}

} // namespace
} // namespace streampim
