/**
 * @file
 * Matrix-level task graphs: the common workload representation.
 *
 * A workload (polybench kernel, DNN layer sequence, user task) is a
 * list of matrix operands plus a sequence of matrix operations. The
 * StreamPIM runtime lowers a task graph to a VPC schedule; the
 * baseline platforms derive their op/traffic counts from the same
 * graph, so every platform executes exactly the same computation.
 */

#ifndef STREAMPIM_WORKLOADS_TASK_GRAPH_HH_
#define STREAMPIM_WORKLOADS_TASK_GRAPH_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "common/log.hh"

namespace streampim
{

/** Index of a matrix operand within its task graph. */
using MatrixId = std::uint32_t;

/** Shape (and name, for reporting) of one matrix operand. */
struct MatrixDesc
{
    std::string name;
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;

    std::uint64_t
    elements() const
    {
        return std::uint64_t(rows) * cols;
    }
};

/** Matrix operation kinds the runtime can lower. */
enum class MatOpKind
{
    MatMul,   //!< c = a * b
    MatVec,   //!< c = a * b, b and c are column vectors
    MatVecT,  //!< c = a^T * b (column-distributed access to a)
    MatAdd,   //!< c = a + b (element-wise)
    Scale,    //!< c = alpha * a (alpha is an 8-bit scalar)
    Nonlinear //!< host-side op over a's elements (DNN activations)
};

/** One matrix operation over task-graph operands. */
struct MatrixOp
{
    MatOpKind kind;
    MatrixId a = 0;
    MatrixId b = 0; //!< unused by Scale/Nonlinear
    MatrixId c = 0; //!< destination

    /**
     * Host-cost weight of a Nonlinear op relative to a cheap
     * element-wise activation (ReLU = 1). Transcendental-and-
     * reduction ops — softmax, layer norm, GELU — cost an order
     * more per element on a scalar host (libm exp/tanh plus extra
     * passes over the data).
     */
    double hostWeight = 1.0;

    /**
     * MatMul only: force the streaming tiled lowering regardless of
     * the planner's fit rule (addTiledMatmul sets it; the planner
     * also tiles un-marked matmuls the rule says do not fit, see
     * runtime/tiler.hh needsTiling).
     */
    bool tiled = false;
};

/** A whole workload at matrix granularity. */
struct TaskGraph
{
    std::string name;
    std::vector<MatrixDesc> matrices;
    std::vector<MatrixOp> ops;

    MatrixId
    addMatrix(std::string mat_name, std::uint32_t rows,
              std::uint32_t cols)
    {
        SPIM_ASSERT(rows > 0 && cols > 0, "degenerate matrix shape");
        matrices.push_back({std::move(mat_name), rows, cols});
        return MatrixId(matrices.size() - 1);
    }

    void
    addOp(MatOpKind kind, MatrixId a, MatrixId b, MatrixId c,
          double host_weight = 1.0)
    {
        SPIM_ASSERT(a < matrices.size() && c < matrices.size(),
                    "op references unknown matrix");
        if (kind != MatOpKind::Scale && kind != MatOpKind::Nonlinear)
            SPIM_ASSERT(b < matrices.size(),
                        "op references unknown matrix");
        checkShapes(kind, a, b, c);
        ops.push_back({kind, a, b, c, host_weight});
    }

    /**
     * Add a matmul that must stream through the tiling layer (an
     * out-of-core product).
     */
    void
    addTiledMatmul(MatrixId a, MatrixId b, MatrixId c)
    {
        addOp(MatOpKind::MatMul, a, b, c);
        ops.back().tiled = true;
    }

    /** Total multiply-accumulate operations across the graph. */
    std::uint64_t
    totalMacs() const
    {
        std::uint64_t macs = 0;
        for (const auto &op : ops) {
            const auto &ma = matrices[op.a];
            switch (op.kind) {
              case MatOpKind::MatMul:
                macs += std::uint64_t(ma.rows) * ma.cols *
                        matrices[op.b].cols;
                break;
              case MatOpKind::MatVec:
                macs += ma.elements();
                break;
              case MatOpKind::MatVecT:
                macs += ma.elements();
                break;
              case MatOpKind::MatAdd:
              case MatOpKind::Scale:
                macs += ma.elements();
                break;
              case MatOpKind::Nonlinear:
                // Host-side; costed by the host model, not as MACs.
                break;
            }
        }
        return macs;
    }

    /** Bytes of all operands (working set size, 1 B per element). */
    std::uint64_t
    workingSetBytes() const
    {
        std::uint64_t bytes = 0;
        for (const auto &m : matrices)
            bytes += m.elements();
        return bytes;
    }

  private:
    void
    checkShapes(MatOpKind kind, MatrixId a, MatrixId b,
                MatrixId c) const
    {
        const auto &ma = matrices[a];
        const auto &mc = matrices[c];
        switch (kind) {
          case MatOpKind::MatMul: {
            const auto &mb = matrices[b];
            SPIM_ASSERT(ma.cols == mb.rows,
                        "matmul inner dims: ", ma.cols, " vs ",
                        mb.rows);
            SPIM_ASSERT(mc.rows == ma.rows && mc.cols == mb.cols,
                        "matmul output shape mismatch");
            break;
          }
          case MatOpKind::MatVec: {
            const auto &mb = matrices[b];
            SPIM_ASSERT(mb.cols == 1 && ma.cols == mb.rows,
                        "matvec operand shapes");
            SPIM_ASSERT(mc.cols == 1 && mc.rows == ma.rows,
                        "matvec output shape");
            break;
          }
          case MatOpKind::MatVecT: {
            const auto &mb = matrices[b];
            SPIM_ASSERT(mb.cols == 1 && ma.rows == mb.rows,
                        "matvecT operand shapes");
            SPIM_ASSERT(mc.cols == 1 && mc.rows == ma.cols,
                        "matvecT output shape");
            break;
          }
          case MatOpKind::MatAdd: {
            const auto &mb = matrices[b];
            SPIM_ASSERT(ma.rows == mb.rows && ma.cols == mb.cols &&
                            mc.rows == ma.rows && mc.cols == ma.cols,
                        "matadd shape mismatch");
            break;
          }
          case MatOpKind::Scale:
            SPIM_ASSERT(mc.rows == ma.rows && mc.cols == ma.cols,
                        "scale shape mismatch");
            break;
          case MatOpKind::Nonlinear:
            SPIM_ASSERT(mc.rows == ma.rows && mc.cols == ma.cols,
                        "nonlinear shape mismatch");
            break;
        }
    }
};

} // namespace streampim

#endif // STREAMPIM_WORKLOADS_TASK_GRAPH_HH_
