/**
 * @file
 * Tests for the polybench kernel builders (Table IV shapes).
 */

#include <gtest/gtest.h>

#include "core/system_config.hh"
#include "runtime/tiler.hh"
#include "workloads/dnn.hh"
#include "workloads/polybench.hh"

namespace streampim
{
namespace
{

TEST(Polybench, AllNineKernelsInFigureOrder)
{
    const auto &all = allPolybenchKernels();
    ASSERT_EQ(all.size(), 9u);
    EXPECT_STREQ(polybenchName(all[0]), "2mm");
    EXPECT_STREQ(polybenchName(all[8]), "mvt");
}

TEST(Polybench, SmallKernelsMatchFig3)
{
    const auto &small = smallPolybenchKernels();
    ASSERT_EQ(small.size(), 4u);
    EXPECT_STREQ(polybenchName(small[0]), "atax");
    EXPECT_STREQ(polybenchName(small[3]), "mvt");
}

TEST(Polybench, ExtralargeShapesAtDim2000)
{
    TaskGraph gemm = makePolybench(PolybenchKernel::Gemm, 2000);
    // EXTRALARGE gemm: NI/NJ/NK = 2000/2300/2600.
    EXPECT_EQ(gemm.matrices[0].rows, 2000u);
    EXPECT_EQ(gemm.matrices[0].cols, 2600u);
    EXPECT_EQ(gemm.matrices[1].cols, 2300u);
}

TEST(Polybench, DimensionsScaleProportionally)
{
    TaskGraph g = makePolybench(PolybenchKernel::Gemm, 1000);
    EXPECT_EQ(g.matrices[0].rows, 1000u);
    EXPECT_EQ(g.matrices[0].cols, 1300u);
}

TEST(Polybench, AtaxComputesTwoMatVecs)
{
    TaskGraph g = makePolybench(PolybenchKernel::Atax, 2000);
    ASSERT_EQ(g.ops.size(), 2u);
    EXPECT_EQ(g.ops[0].kind, MatOpKind::MatVec);
    EXPECT_EQ(g.ops[1].kind, MatOpKind::MatVecT);
    // MACs = M*N twice.
    EXPECT_EQ(g.totalMacs(), 2ull * 1900 * 2100);
}

TEST(Polybench, MvtUsesBothOrientations)
{
    TaskGraph g = makePolybench(PolybenchKernel::Mvt, 2000);
    unsigned matvec = 0, matvec_t = 0, add = 0;
    for (const auto &op : g.ops) {
        matvec += op.kind == MatOpKind::MatVec;
        matvec_t += op.kind == MatOpKind::MatVecT;
        add += op.kind == MatOpKind::MatAdd;
    }
    EXPECT_EQ(matvec, 1u);
    EXPECT_EQ(matvec_t, 1u);
    EXPECT_EQ(add, 2u);
}

TEST(Polybench, ThreeMmIsThreeMatMuls)
{
    TaskGraph g = makePolybench(PolybenchKernel::ThreeMm, 100);
    unsigned mm = 0;
    for (const auto &op : g.ops)
        mm += op.kind == MatOpKind::MatMul;
    EXPECT_EQ(mm, 3u);
}

TEST(Polybench, EveryKernelValidatesAtSmallDims)
{
    for (PolybenchKernel k : allPolybenchKernels()) {
        TaskGraph g = makePolybench(k, 16);
        EXPECT_GT(g.ops.size(), 0u) << polybenchName(k);
        EXPECT_GT(g.totalMacs(), 0u) << polybenchName(k);
    }
}

TEST(Dnn, MlpShapesFollowConfig)
{
    MlpConfig cfg;
    cfg.batch = 32;
    cfg.inputDim = 100;
    cfg.hiddenDim = 64;
    cfg.hiddenLayers = 1;
    cfg.outputDim = 10;
    TaskGraph g = makeMlp(cfg);
    // Two matmul layers (hidden + output).
    unsigned mm = 0;
    for (const auto &op : g.ops)
        mm += op.kind == MatOpKind::MatMul;
    EXPECT_EQ(mm, 2u);
    EXPECT_EQ(g.totalMacs() >=
                  32ull * 100 * 64 + 32ull * 64 * 10,
              true);
}

TEST(Dnn, BertLayerStructure)
{
    BertConfig cfg;
    cfg.layers = 1;
    TaskGraph g = makeBert(cfg);
    unsigned mm = 0, nonlinear = 0;
    for (const auto &op : g.ops) {
        mm += op.kind == MatOpKind::MatMul;
        nonlinear += op.kind == MatOpKind::Nonlinear;
    }
    // QKV (3) + per-head score/context (2 x 12) + output (1) +
    // FFN (2) = 30 matmuls per layer.
    EXPECT_EQ(mm, 30u);
    // softmax per head (12) + 2 layer norms + 1 GELU = 15.
    EXPECT_EQ(nonlinear, 15u);
}

TEST(Dnn, NonlinearElementsAreHostWeighted)
{
    TaskGraph g;
    auto a = g.addMatrix("a", 10, 10);
    auto c = g.addMatrix("c", 10, 10);
    g.addOp(MatOpKind::Nonlinear, a, a, c, 12.0);
    EXPECT_EQ(nonlinearElements(g), 1200u);
}

TEST(Polybench, SmallestScaleClampsEveryDimensionToOne)
{
    // dim 1 scales every EXTRALARGE extent to 1600*1/2000 = 0 before
    // clamping; every kernel must still build a valid graph with no
    // zero-sized matrix.
    for (PolybenchKernel k : allPolybenchKernels()) {
        TaskGraph g = makePolybench(k, 1);
        EXPECT_GT(g.ops.size(), 0u) << polybenchName(k);
        for (const auto &m : g.matrices) {
            EXPECT_GE(m.rows, 1u)
                << polybenchName(k) << " " << m.name;
            EXPECT_GE(m.cols, 1u)
                << polybenchName(k) << " " << m.name;
        }
    }
}

TEST(Polybench, PaperDimMatmulsAreNotMarkedTiled)
{
    // The Table IV reference dims fit untiled at the paper geometry;
    // their untiled plans are pinned elsewhere.
    const RmParams rm = SystemConfig::paperDefault().rm;
    TaskGraph g = makePolybench(PolybenchKernel::Gemm, 2000);
    for (const auto &op : g.ops) {
        EXPECT_FALSE(op.tiled);
        EXPECT_FALSE(needsTiling(rm, g, op));
    }
}

TEST(Polybench, OversizeMatmulsTileAtThePaperDefault)
{
    // Doubling the paper dim pushes gemm's operands past the fit
    // rule (4000*5200 elements > 2 x 4 MiB). The builder marks
    // nothing: the planner's fit rule decides.
    const RmParams rm = SystemConfig::paperDefault().rm;
    TaskGraph g = makePolybench(PolybenchKernel::Gemm, 4000);
    unsigned matmuls = 0;
    for (const auto &op : g.ops) {
        EXPECT_FALSE(op.tiled);
        if (op.kind == MatOpKind::MatMul) {
            EXPECT_TRUE(needsTiling(rm, g, op));
            matmuls++;
        }
    }
    EXPECT_GT(matmuls, 0u);
}

TEST(PolybenchDeath, TinyDimPanics)
{
    EXPECT_DEATH(makePolybench(PolybenchKernel::Gemm, 0),
                 "dimension");
}

} // namespace
} // namespace streampim
