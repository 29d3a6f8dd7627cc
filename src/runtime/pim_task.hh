/**
 * @file
 * The StreamPIM programming interface (Sec. IV-D, Fig. 16).
 *
 *   task = create_pim_task()            -> PimTask task(config)
 *   task.add_matrix(A, size1, size2)    -> task.addMatrix(...)
 *   task.add_operation(MUL, A, B, C)    -> task.addOperation(...)
 *   task.run()                          -> task.run()
 *
 * A task collects interdependent operands and operations, decides
 * the optimization strategy (distribute/unblock layouts and VPC
 * ordering) as they are added, and performs the computation at
 * run(). run() does two things:
 *   - functionally computes every operation with the device's
 *     arithmetic semantics (8-bit operands, 16-bit products, 32-bit
 *     dot accumulation, results truncated to 8 bits), writing
 *     results back into the caller's buffers, and
 *   - replays the planned VPC schedule on the timed device model,
 *     returning the ExecutionReport.
 *
 * Every operation is computed through the RmProcessor: its closed
 * form, or the domain-wall gate netlist under STREAMPIM_STRICT_GATES
 * (dwlogic/mode.hh).
 */

#ifndef STREAMPIM_RUNTIME_PIM_TASK_HH_
#define STREAMPIM_RUNTIME_PIM_TASK_HH_

#include <cstdint>
#include <vector>

#include "core/executor.hh"
#include "core/system_config.hh"
#include "runtime/planner.hh"
#include "workloads/task_graph.hh"

namespace streampim
{

/** Handle to a matrix registered with a task. */
struct PimMatrix
{
    MatrixId id;
};

/** One StreamPIM task (Fig. 16). */
class PimTask
{
  public:
    explicit PimTask(SystemConfig config =
                         SystemConfig::paperDefault());

    /**
     * Register a caller-owned row-major uint8 matrix. The buffer
     * must stay alive until run() returns; destination matrices are
     * written in place.
     */
    PimMatrix addMatrix(std::uint8_t *data, std::uint32_t rows,
                        std::uint32_t cols);

    /** Register an operation over previously added matrices. */
    void addOperation(MatOpKind kind, PimMatrix a, PimMatrix b,
                      PimMatrix c);

    /** Scale uses an immediate 8-bit scalar. */
    void addScale(std::uint8_t alpha, PimMatrix a, PimMatrix c);

    /**
     * Execute: functional compute into the destination buffers plus
     * timed simulation.
     */
    ExecutionReport run();

    /** The lowered VPC counts (after run()). */
    const PlanStats &planStats() const { return planStats_; }

    const TaskGraph &graph() const { return graph_; }

  private:
    struct Operand
    {
        std::uint8_t *data;
    };

    struct ScaleInfo
    {
        std::size_t opIndex;
        std::uint8_t alpha;
    };

    void computeFunctional();
    void computeOp(const MatrixOp &op, std::uint8_t alpha);

    SystemConfig cfg_;
    TaskGraph graph_;
    std::vector<Operand> operands_;
    std::vector<ScaleInfo> scales_;
    Planner planner_;
    Executor executor_;
    PlanStats planStats_;
    bool ran_ = false;
};

} // namespace streampim

#endif // STREAMPIM_RUNTIME_PIM_TASK_HH_
