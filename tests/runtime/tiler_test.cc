/**
 * @file
 * The tiling layer (grid math, task order, fit rule, row split)
 * and the planner's streaming tiled lowering.
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
    EXPECT_EQ(tileEdgeForBudget(256 * 1024, 4), 256u);
    EXPECT_EQ(tileEdgeForBudget(16 * 1024, 8), 32u);
    // Degenerate budgets still yield a usable edge.
    EXPECT_EQ(tileEdgeForBudget(1, 4), 1u);
}

TEST(Tiler, TileEdgeBudgetBelowOneMinimalTileFloorsAtOne)
{
    // Edge 1 needs (2*1)^2 * bpe = 4*bpe bytes. Budgets strictly
    // below that cannot hold even the minimal tile, but the edge
    // floors at 1 (a usable, if oversubscribed, tile) rather than
    // returning 0 and breaking every downstream division.
    EXPECT_EQ(tileEdgeForBudget(4 * 4 - 1, 4), 1u);
    EXPECT_EQ(tileEdgeForBudget(0, 8), 1u);
    EXPECT_EQ(tileEdgeForBudget(3, 1), 1u);
    // At exactly 4*bpe the minimal tile fits and doubles once.
    EXPECT_EQ(tileEdgeForBudget(4 * 1, 1), 2u);
}

TEST(Tiler, TileEdgeDoublesAtExactCapacityThreshold)
{
    // The loop doubles while (2*edge)^2 * bpe <= budget, so a
    // budget exactly equal to the doubled edge's footprint still
    // takes the doubling — the threshold is inclusive.
    // (2*4)^2 * 8 = 512: edge 4 at 511, edge 8 at 512.
    EXPECT_EQ(tileEdgeForBudget(511, 8), 4u);
    EXPECT_EQ(tileEdgeForBudget(512, 8), 8u);
    // One byte past the threshold does not reach the next power.
    EXPECT_EQ(tileEdgeForBudget(513, 8), 8u);
    // The same inclusivity at the operating point the functional
    // geometry uses (8 B/elem): doubling 16 -> 32 needs
    // (2*16)^2 * 8 = 8192 bytes, inclusively.
    EXPECT_EQ(tileEdgeForBudget(8192 - 1, 8), 16u);
    EXPECT_EQ(tileEdgeForBudget(8192, 8), 32u);
}

TEST(Tiler, DefaultGeometryDerivesMatSizedTiles)
{
    SystemConfig cfg;
    MatmulTiling t = MatmulTiling::build(
        4096, 4096, 4096, tileEdgeForBudget(cfg.rm.matBytes));
    EXPECT_EQ(t.tileRows, 256u);
    EXPECT_EQ(t.tileK, 256u);
    EXPECT_EQ(t.tileCols, 256u);
    EXPECT_EQ(t.iTiles, 16u);
    EXPECT_EQ(t.kTiles, 16u);
    EXPECT_EQ(t.jTiles, 16u);
    EXPECT_EQ(t.tasks(), 4096u);
}

TEST(Tiler, RemainderTilesCoverTheProblemExactly)
{
    MatmulTiling t = MatmulTiling::build(250, 100, 301, 100);
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
    MatmulTiling t = MatmulTiling::build(8, 5000, 3, 256);
    EXPECT_EQ(t.tileRows, 8u);
    EXPECT_EQ(t.tileCols, 3u);
    EXPECT_EQ(t.tileK, 256u);
    EXPECT_EQ(t.iTiles, 1u);
    EXPECT_EQ(t.jTiles, 1u);
    EXPECT_EQ(t.kTiles, (5000u + 255) / 256);
}

TEST(Tiler, TaskOrderVisitsEveryTileOnceInIJKOrder)
{
    // Remainders on every axis: 3 x 4 C tiles of edge 16, each in 5
    // k-slices (37 = 16+16+5, 50 = 3*16+2, 70 = 4*16+6).
    const MatmulTiling t = MatmulTiling::build(37, 70, 50, 16);
    ASSERT_EQ(t.tasks(), 3u * 4 * 5);
    std::uint64_t n = 0, rows = 0, cols = 0;
    for (std::uint32_t i = 0; i < t.iTiles; ++i) {
        for (std::uint32_t j = 0; j < t.jTiles; ++j) {
            std::uint64_t depth = 0;
            for (std::uint32_t kk = 0; kk < t.kTiles; ++kk) {
                const TileTask tt = t.task(n++);
                EXPECT_EQ(tt.i, i);
                EXPECT_EQ(tt.j, j);
                EXPECT_EQ(tt.kk, kk);
                EXPECT_EQ(tt.tile, std::uint64_t(i) * t.jTiles + j);
                EXPECT_EQ(tt.kpos, depth);
                depth += tt.depth;
                if (j == 0 && kk == 0)
                    rows += tt.rows;
                if (i == 0 && kk == 0)
                    cols += tt.cols;
            }
            EXPECT_EQ(depth, t.k);
        }
    }
    EXPECT_EQ(n, t.tasks());
    EXPECT_EQ(rows, t.n);
    EXPECT_EQ(cols, t.m);
}

TEST(Tiler, NeedsTilingTriggersOnAnyOversizeOperand)
{
    SystemConfig cfg;
    // Twice one 4 MiB subarray: an operand of exactly 8 MiB fits.
    EXPECT_EQ(2 * cfg.rm.bytesPerSubarray(), 8ull << 20);
    EXPECT_FALSE(needsTiling(cfg.rm, 2048, 4096, 2048));
    EXPECT_TRUE(needsTiling(cfg.rm, 2048, 4097, 2048));
    // Paper-scale polybench shapes (dim 2000) all fit untiled.
    EXPECT_FALSE(needsTiling(cfg.rm, 2000, 2600, 2300));
    // 4096^3: every operand is 16 MiB > the 8 MiB threshold.
    EXPECT_TRUE(needsTiling(cfg.rm, 4096, 4096, 4096));
    // A single oversize operand suffices (here C = n*m).
    EXPECT_TRUE(needsTiling(cfg.rm, 4096, 2, 4096));
}

TEST(Tiler, MarkedOpsTileRegardlessOfShape)
{
    SystemConfig cfg;
    TaskGraph g;
    auto a = g.addMatrix("A", 8, 8);
    auto b = g.addMatrix("B", 8, 8);
    auto c = g.addMatrix("C", 8, 8);
    g.addTiledMatmul(a, b, c);
    EXPECT_TRUE(needsTiling(cfg.rm, g, g.ops.front()));

    TaskGraph h;
    auto ha = h.addMatrix("A", 8, 8);
    auto hb = h.addMatrix("B", 8, 8);
    auto hc = h.addMatrix("C", 8, 8);
    h.addOp(MatOpKind::MatMul, ha, hb, hc);
    EXPECT_FALSE(needsTiling(cfg.rm, h, h.ops.front()));
}

/** Blocks must tile [0, n) exactly: contiguous, in order, no
 * overlap, no gap, and idle shards only at the tail. */
void
expectExactCover(const std::vector<RowBlock> &blocks,
                 std::uint32_t n, unsigned devices)
{
    ASSERT_EQ(blocks.size(), devices);
    std::uint32_t next = 0;
    bool tail_idle = false;
    for (const RowBlock &b : blocks) {
        if (b.idle()) {
            tail_idle = true;
            continue;
        }
        ASSERT_FALSE(tail_idle)
            << "live block after an idle one";
        EXPECT_EQ(b.begin, next);
        next += b.rows;
    }
    EXPECT_EQ(next, n);
}

// partitionRows is the fleet's shard planner.
TEST(ShardPlanner, RemainderLandsOnTheLastLiveBlock)
{
    // 10 rows over 4 devices: ceil(10/4) = 3 per block, the last
    // live block takes the remainder 1.
    const auto blocks = partitionRows(10, 4);
    expectExactCover(blocks, 10, 4);
    EXPECT_EQ(blocks[0].begin, 0u);
    EXPECT_EQ(blocks[0].rows, 3u);
    EXPECT_EQ(blocks[1].begin, 3u);
    EXPECT_EQ(blocks[1].rows, 3u);
    EXPECT_EQ(blocks[2].begin, 6u);
    EXPECT_EQ(blocks[2].rows, 3u);
    EXPECT_EQ(blocks[3].begin, 9u);
    EXPECT_EQ(blocks[3].rows, 1u);
}

TEST(ShardPlanner, EvenSplitFillsEveryDevice)
{
    const auto blocks = partitionRows(8, 4);
    expectExactCover(blocks, 8, 4);
    for (unsigned d = 0; d < 4; ++d) {
        EXPECT_EQ(blocks[d].begin, d * 2u);
        EXPECT_EQ(blocks[d].rows, 2u);
    }
}

TEST(ShardPlanner, FewerRowsThanDevicesIdlesTheTail)
{
    // 3 rows over 8 devices: ceil(3/8) = 1 row per block, devices
    // 3..7 idle.
    const auto blocks = partitionRows(3, 8);
    expectExactCover(blocks, 3, 8);
    for (unsigned d = 0; d < 3; ++d) {
        EXPECT_EQ(blocks[d].begin, d);
        EXPECT_EQ(blocks[d].rows, 1u);
    }
    for (unsigned d = 3; d < 8; ++d)
        EXPECT_TRUE(blocks[d].idle());
}

TEST(ShardPlanner, SingleRowUsesExactlyOneDevice)
{
    const auto blocks = partitionRows(1, 4);
    expectExactCover(blocks, 1, 4);
    EXPECT_EQ(blocks[0].rows, 1u);
    for (unsigned d = 1; d < 4; ++d)
        EXPECT_TRUE(blocks[d].idle());
}

TEST(ShardPlanner, OneDeviceTakesEverything)
{
    const auto blocks = partitionRows(37, 1);
    expectExactCover(blocks, 37, 1);
    EXPECT_EQ(blocks[0].begin, 0u);
    EXPECT_EQ(blocks[0].rows, 37u);
}

TEST(ShardPlanner, ZeroRowsYieldsAllIdleBlocks)
{
    const auto blocks = partitionRows(0, 4);
    ASSERT_EQ(blocks.size(), 4u);
    for (const RowBlock &b : blocks)
        EXPECT_TRUE(b.idle());
}

TEST(ShardPlanner, ExactCoverAcrossShapesAndFleets)
{
    // 0xFFFFFFFF: the largest element-wise range; ceil(n / devices)
    // must not wrap.
    for (std::uint32_t n :
         {1u, 2u, 5u, 31u, 32u, 33u, 97u, 256u, 0xFFFFFFFFu})
        for (unsigned devices : {1u, 2u, 3u, 4u, 7u, 8u, 64u}) {
            SCOPED_TRACE(testing::Message()
                         << "n=" << n << " devices=" << devices);
            expectExactCover(partitionRows(n, devices), n, devices);
        }
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
    sb.setTilerConfig(TilerConfig{.doubleBuffer = false});
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
