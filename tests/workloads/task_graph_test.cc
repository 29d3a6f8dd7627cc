/**
 * @file
 * Tests for the task-graph representation and its invariants.
 */

#include <gtest/gtest.h>

#include "workloads/task_graph.hh"

namespace streampim
{
namespace
{

TEST(TaskGraph, AddMatrixReturnsSequentialIds)
{
    TaskGraph g;
    EXPECT_EQ(g.addMatrix("A", 2, 3), 0u);
    EXPECT_EQ(g.addMatrix("B", 3, 4), 1u);
    EXPECT_EQ(g.matrices[0].elements(), 6u);
}

TEST(TaskGraph, MacCounting)
{
    TaskGraph g;
    auto a = g.addMatrix("A", 10, 20);
    auto b = g.addMatrix("B", 20, 30);
    auto c = g.addMatrix("C", 10, 30);
    g.addOp(MatOpKind::MatMul, a, b, c);
    EXPECT_EQ(g.totalMacs(), 10u * 20 * 30);

    auto x = g.addMatrix("x", 30, 1);
    auto y = g.addMatrix("y", 10, 1);
    g.addOp(MatOpKind::MatVec, c, x, y);
    EXPECT_EQ(g.totalMacs(), 10u * 20 * 30 + 10 * 30);
}

TEST(TaskGraph, WorkingSetBytes)
{
    TaskGraph g;
    g.addMatrix("A", 4, 4);
    g.addMatrix("B", 2, 8);
    EXPECT_EQ(g.workingSetBytes(), 32u);
}

TEST(TaskGraph, NonlinearIsNotMacs)
{
    TaskGraph g;
    auto a = g.addMatrix("A", 8, 8);
    auto c = g.addMatrix("C", 8, 8);
    g.addOp(MatOpKind::Nonlinear, a, a, c);
    EXPECT_EQ(g.totalMacs(), 0u);
}

TEST(TaskGraphDeath, ShapeMismatchesPanic)
{
    TaskGraph g;
    auto a = g.addMatrix("A", 4, 5);
    auto b = g.addMatrix("B", 6, 7); // inner dim mismatch
    auto c = g.addMatrix("C", 4, 7);
    EXPECT_DEATH(g.addOp(MatOpKind::MatMul, a, b, c), "inner");

    auto v = g.addMatrix("v", 5, 1);
    auto y_bad = g.addMatrix("y", 3, 1);
    EXPECT_DEATH(g.addOp(MatOpKind::MatVec, a, v, y_bad), "shape");
}

TEST(TaskGraphDeath, UnknownMatrixPanics)
{
    TaskGraph g;
    auto a = g.addMatrix("A", 2, 2);
    EXPECT_DEATH(g.addOp(MatOpKind::MatAdd, a, 42, a), "unknown");
}

TEST(TaskGraphDeath, DegenerateShapePanics)
{
    TaskGraph g;
    EXPECT_DEATH(g.addMatrix("A", 0, 4), "degenerate");
}

} // namespace
} // namespace streampim
