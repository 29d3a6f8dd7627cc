/**
 * @file
 * The planner: lowers matrix-level task graphs to VPC schedules
 * under the paper's three optimization levels (Sec. IV-C).
 *
 * Placement policy:
 *  - Matrices are row-distributed round-robin over the compute
 *    subarray set (Fig. 15: "different rows of A are stored in
 *    different subarrays").
 *  - Vectors live whole on a home subarray: inside the compute set
 *    for base/distribute, on a disjoint staging set in the memory
 *    banks for unblock ("operands and results are placed in
 *    different predefined subarray sets that do not overlap").
 *  - Both sets are fixed at construction, as in the paper's static
 *    placement. Wear-driven re-placement is this reproduction's
 *    extension and belongs to the functional endurance campaign
 *    (runtime/health_policy.hh), which the planner never consults.
 *
 * Issue-order policy (what unblock actually changes):
 *  - distribute: the natural per-subarray order [compute(s);
 *    collect(s)] — each collect depends on its compute and, with
 *    in-order per-bank issue, stalls the bank's queue until the
 *    compute drains, serializing compute across the subarrays of a
 *    bank. Parallelism degenerates to roughly the bank count.
 *  - unblock: copies, computes and collects are issued in separate
 *    interleaved phases targeting disjoint subarrays, equivalent to
 *    per-subarray issue with no head-of-line blocking.
 */

#ifndef STREAMPIM_RUNTIME_PLANNER_HH_
#define STREAMPIM_RUNTIME_PLANNER_HH_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/system_config.hh"
#include "runtime/schedule.hh"
#include "runtime/tiler.hh"
#include "workloads/task_graph.hh"

namespace streampim
{

/** Lowering statistics useful for Table IV style reporting. */
struct PlanStats
{
    std::uint64_t pimVpcs = 0;
    std::uint64_t moveVpcs = 0;
    std::uint64_t batches = 0;
    std::uint64_t slicedVpcs = 0; //!< VPCs split by the slicing rule
    std::uint64_t tiledMatmuls = 0; //!< matmuls routed via the tiler
    std::uint64_t tileTasks = 0;    //!< (i, j, kk) tile tasks emitted
};

/** Lowers TaskGraphs to VpcSchedules. */
class Planner
{
  public:
    explicit Planner(const SystemConfig &config);

    /** Lower the whole task graph. */
    VpcSchedule plan(const TaskGraph &graph) const;

    /**
     * Lower one standalone N x K x M matmul through the streaming
     * tiling layer (regardless of whether it would fit untiled):
     * the out-of-core entry point the benches and tests drive
     * directly. Stats land in stats() like plan().
     */
    VpcSchedule planTiledMatmul(std::uint32_t n, std::uint32_t k,
                                std::uint32_t m) const;

    /** Tiling knobs used by plan()/planTiledMatmul(). */
    void setTilerConfig(const TilerConfig &cfg) { tilerCfg_ = cfg; }

    /** Stats of the last plan() call. */
    const PlanStats &stats() const { return stats_; }

    /** The compute subarray set for the configured opt level. */
    const std::vector<std::uint32_t> &computeSet() const
    {
        return computeSet_;
    }

    /** The staging subarray set (vector homes under unblock). */
    const std::vector<std::uint32_t> &stagingSet() const
    {
        return stagingSet_;
    }

    /**
     * Lower recovery-ladder traffic (runtime/recovery.hh) — journal
     * snapshots, rollback restores, and re-home copies of a Failed
     * VPC's operands — to a schedule of independent TRAN batches,
     * one per (from, to) move of @p bytes bytes each. Batches carry
     * the recovery flag so the executor charges them under the
     * Recovery energy/cycle category (EnergyOp::Recovery,
     * TimeBreakdown::recoveryTicks).
     */
    VpcSchedule
    planRecovery(const std::vector<
                     std::pair<std::uint32_t, std::uint32_t>> &moves,
                 std::uint64_t bytes) const;

  private:
    struct LowerCtx
    {
        VpcSchedule *sched;
        /**
         * Batch whose completion publishes each matrix's data at its
         * placement (kNoBatch if it is a pristine input). For ops
         * whose results are collected this is the final collect
         * TRAN, not the last compute. Coarse — one index per matrix
         * — and consumed as depA of downstream batches that read the
         * matrix but do not carry the inter-op barrier.
         */
        std::vector<std::uint32_t> lastWriter;
        /** True once any op wrote the matrix. */
        std::vector<bool> written;
    };

    /** Rows of a row-distributed matrix living on compute slot i. */
    std::uint32_t rowsOnSlot(std::uint32_t rows,
                             std::uint32_t slot) const;

    /** Home subarray of vector-shaped matrix @p id. */
    std::uint32_t vectorHome(MatrixId id) const;

    /** Assembly/staging subarray for column stream @p j. */
    std::uint32_t streamHome(std::uint32_t j) const;

    void lowerMatVec(LowerCtx &ctx, const TaskGraph &g,
                     const MatrixOp &op, bool transposed) const;
    void lowerMatMul(LowerCtx &ctx, const TaskGraph &g,
                     const MatrixOp &op) const;
    /** Streaming tiled lowering (out-of-core matmuls; tiler.hh). */
    void lowerTiledMatMul(LowerCtx &ctx, const TaskGraph &g,
                          const MatrixOp &op) const;
    void lowerElementWise(LowerCtx &ctx, const TaskGraph &g,
                          const MatrixOp &op) const;

    /**
     * Emit one per-result-element collection transfer.
     * @return index of the pushed batch, so callers can track the
     *         final collect as the result's publication point.
     */
    std::uint32_t pushCollect(LowerCtx &ctx, std::uint32_t src,
                              std::uint32_t dst,
                              std::uint32_t results,
                              std::uint32_t dep) const;

    /**
     * Emit a hierarchical broadcast of a length-@p len vector from
     * @p home to subarrays [first, first + count): one inter-bank hop
     * to a relay subarray (the bank's first destination) per
     * destination bank, then one bank-local fan-out run. Copies
     * complete in destination order, so destination t's copy is the
     * returned index + t.
     * @return index of the first hop.
     */
    std::uint32_t emitBroadcast(LowerCtx &ctx, std::uint32_t home,
                                std::uint32_t first,
                                std::uint32_t count, std::uint32_t len,
                                std::uint32_t dep, bool &barrier) const;

    /**
     * Unblock's separated compute and collect phases over the slots
     * [first, first + slots) owning rows of a @p rows-row operand:
     * each slot's dot products (length @p k, unsliced) read its copy
     * at @p copy0 + t, then every slot's results go to @p dst. At
     * most two runs per phase (emitBroadcast's copy order).
     * @return index of the last collect, the result's publication
     *         point.
     */
    std::uint32_t emitPhasedRuns(LowerCtx &ctx, std::uint32_t first,
                                 std::uint32_t slots, std::uint32_t rows,
                                 std::uint32_t k, std::uint32_t copy0,
                                 std::uint32_t dst) const;

    /**
     * Emit one compute batch, applying the slicing rule (Sec. IV-C)
     * when the vector length exceeds the per-VPC maximum. The first
     * emitted batch depends on both @p dep and @p dep_b (operand
     * copies); later slices chain on their predecessor.
     * @return index of the last emitted batch.
     */
    std::uint32_t emitCompute(LowerCtx &ctx, VpcKind kind,
                              std::uint32_t subarray,
                              std::uint32_t vpc_count,
                              std::uint64_t vector_len,
                              std::uint32_t dep,
                              std::uint32_t dep_b = kNoBatch) const;

    SystemConfig cfg_;
    TilerConfig tilerCfg_;
    std::vector<std::uint32_t> computeSet_;
    std::vector<std::uint32_t> stagingSet_;
    mutable PlanStats stats_;
};

} // namespace streampim

#endif // STREAMPIM_RUNTIME_PLANNER_HH_
