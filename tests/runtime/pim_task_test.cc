/**
 * @file
 * Tests for the PimTask programming interface (Fig. 16).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "runtime/pim_task.hh"

namespace streampim
{
namespace
{

TEST(PimTask, MatMulComputesAndTimes)
{
    const unsigned n = 8;
    std::vector<std::uint8_t> a(n * n, 2), b(n * n, 3), c(n * n, 0);
    PimTask task;
    auto ma = task.addMatrix(a.data(), n, n);
    auto mb = task.addMatrix(b.data(), n, n);
    auto mc = task.addMatrix(c.data(), n, n);
    task.addOperation(MatOpKind::MatMul, ma, mb, mc);
    ExecutionReport r = task.run();
    // Every output element = 8 * 2 * 3 = 48.
    for (auto v : c)
        EXPECT_EQ(v, 48u);
    EXPECT_GT(r.makespan, 0u);
    EXPECT_EQ(task.planStats().pimVpcs, std::uint64_t(n) * n);
}

TEST(PimTask, MatAddAndScale)
{
    const unsigned n = 6;
    std::vector<std::uint8_t> a(n * n), b(n * n), c(n * n);
    for (unsigned i = 0; i < n * n; ++i) {
        a[i] = std::uint8_t(i);
        b[i] = std::uint8_t(2 * i);
    }
    PimTask task;
    auto ma = task.addMatrix(a.data(), n, n);
    auto mb = task.addMatrix(b.data(), n, n);
    auto mc = task.addMatrix(c.data(), n, n);
    task.addOperation(MatOpKind::MatAdd, ma, mb, mc);
    task.addScale(3, mc, mc);
    task.run();
    for (unsigned i = 0; i < n * n; ++i)
        EXPECT_EQ(c[i], std::uint8_t(3 * std::uint8_t(3 * i)));
}

TEST(PimTask, MatVecBothOrientations)
{
    const unsigned rows = 4, cols = 3;
    // A = [[1,2,3],[4,5,6],[7,8,9],[10,11,12]], x = [1,2,3].
    std::vector<std::uint8_t> a = {1, 2,  3,  4,  5,  6,
                                   7, 8, 9, 10, 11, 12};
    std::vector<std::uint8_t> x = {1, 2, 3};
    std::vector<std::uint8_t> y(rows), xt(rows, 1), yt(cols);
    {
        PimTask task;
        auto ma = task.addMatrix(a.data(), rows, cols);
        auto mx = task.addMatrix(x.data(), cols, 1);
        auto my = task.addMatrix(y.data(), rows, 1);
        task.addOperation(MatOpKind::MatVec, ma, mx, my);
        task.run();
    }
    EXPECT_EQ(y[0], 14u);  // 1+4+9
    EXPECT_EQ(y[3], 10u + 22 + 36);
    {
        PimTask task;
        auto ma = task.addMatrix(a.data(), rows, cols);
        auto mv = task.addMatrix(xt.data(), rows, 1);
        auto mo = task.addMatrix(yt.data(), cols, 1);
        task.addOperation(MatOpKind::MatVecT, ma, mv, mo);
        task.run();
    }
    EXPECT_EQ(yt[0], 1u + 4 + 7 + 10); // column sums
    EXPECT_EQ(yt[2], 3u + 6 + 9 + 12);
}

TEST(PimTask, BitAccurateAndFastPathsAgree)
{
    // The task computes through the RmProcessor at every size; the
    // host loop below is the fast-path arithmetic it must match, at
    // 40 x 48 x 36 = 69,120 MACs (above the 65,536-MAC size where
    // the task once switched to host arithmetic). Random operands
    // wrap the 32-bit accumulator's low byte.
    const unsigned I = 40, K = 48, J = 36;
    Rng rng(4);
    std::vector<std::uint8_t> a(I * K), b(K * J), c(I * J, 0);
    for (auto &v : a)
        v = std::uint8_t(rng.below(256));
    for (auto &v : b)
        v = std::uint8_t(rng.below(256));

    PimTask task;
    auto ma = task.addMatrix(a.data(), I, K);
    auto mb = task.addMatrix(b.data(), K, J);
    auto mc = task.addMatrix(c.data(), I, J);
    task.addOperation(MatOpKind::MatMul, ma, mb, mc);
    task.run();
    ASSERT_GT(task.graph().totalMacs(), std::uint64_t(1) << 16);

    for (unsigned i = 0; i < I; ++i)
        for (unsigned j = 0; j < J; ++j) {
            std::uint32_t acc = 0;
            for (unsigned k = 0; k < K; ++k)
                acc += std::uint32_t(a[i * K + k]) * b[k * J + j];
            EXPECT_EQ(c[i * J + j], std::uint8_t(acc))
                << i << "," << j;
        }
}

TEST(PimTask, ChainedOperationsSeeIntermediateResults)
{
    const unsigned n = 4;
    std::vector<std::uint8_t> a(n * n, 1), b(n * n, 1);
    std::vector<std::uint8_t> ab(n * n), out(n * n);
    PimTask task;
    auto ma = task.addMatrix(a.data(), n, n);
    auto mb = task.addMatrix(b.data(), n, n);
    auto mab = task.addMatrix(ab.data(), n, n);
    auto mout = task.addMatrix(out.data(), n, n);
    task.addOperation(MatOpKind::MatMul, ma, mb, mab); // all 4s
    task.addOperation(MatOpKind::MatAdd, mab, mab, mout);
    task.run();
    for (auto v : out)
        EXPECT_EQ(v, 8u);
}

TEST(PimTask, TimedReportScalesWithWork)
{
    auto time_for = [](unsigned n) {
        std::vector<std::uint8_t> a(n * n, 1), b(n * n, 1),
            c(n * n, 0);
        PimTask task;
        auto ma = task.addMatrix(a.data(), n, n);
        auto mb = task.addMatrix(b.data(), n, n);
        auto mc = task.addMatrix(c.data(), n, n);
        task.addOperation(MatOpKind::MatMul, ma, mb, mc);
        return task.run().makespan;
    };
    EXPECT_LT(time_for(8), time_for(32));
}

TEST(PimTaskDeath, RunTwicePanics)
{
    std::vector<std::uint8_t> a(4, 1);
    PimTask task;
    auto ma = task.addMatrix(a.data(), 2, 2);
    task.addOperation(MatOpKind::MatAdd, ma, ma, ma);
    task.run();
    EXPECT_DEATH(task.run(), "once");
}

TEST(PimTaskDeath, NullBufferPanics)
{
    PimTask task;
    EXPECT_DEATH(task.addMatrix(nullptr, 2, 2), "null");
}

} // namespace
} // namespace streampim
