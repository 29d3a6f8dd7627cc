/**
 * @file
 * The batched VPC schedule the planner hands to the executor.
 *
 * Full traces reach tens of millions of VPCs (Table IV); simulating
 * each individually is wasteful because consecutive VPCs of one kind
 * on one subarray pipeline back to back. The planner therefore
 * groups VPCs into batches: a batch is a run of identical-shape VPCs
 * on one execution subarray (or a point-to-point transfer), with
 * explicit dependencies on earlier batches. Batches appear in the
 * schedule in the exact order the bank controllers would issue the
 * underlying commands — issue order is semantically meaningful
 * because command issue is in-order per bank with head-of-line
 * blocking (Sec. IV-C), which is precisely what the unblock
 * optimization manipulates.
 *
 * Batches themselves stream row after row over a fixed set of
 * subarrays (Sec. IV-C, Fig. 15), so the schedule stores them as
 * run-length descriptors: one VpcBatch with `repeat` > 1 stands for
 * `repeat` consecutive logical batches whose subarray, destination
 * and dependencies each advance by a constant step. push() coalesces
 * as batches arrive, and pushRun() appends a whole run at once to the
 * same effect; every index (their return values, depA/depB,
 * opResultBatch) is a logical batch index, and forEachBatch() is the
 * one way to walk the logical batches.
 */

#ifndef STREAMPIM_RUNTIME_SCHEDULE_HH_
#define STREAMPIM_RUNTIME_SCHEDULE_HH_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "vpc/vpc.hh"

namespace streampim
{

/** Batch index sentinel for "no dependency". */
inline constexpr std::uint32_t kNoBatch =
    std::numeric_limits<std::uint32_t>::max();

/**
 * A run of identical VPCs (or one batched transfer), repeated
 * @c repeat times along an affine pattern of subarrays and
 * dependencies.
 */
struct VpcBatch
{
    VpcKind kind = VpcKind::Mul;

    /**
     * Global subarray executing the batch. For TRAN batches this is
     * the source subarray.
     */
    std::uint32_t subarray = 0;

    /** TRAN only: destination global subarray. */
    std::uint32_t dstSubarray = 0;

    /** Number of VPCs collapsed into this batch. */
    std::uint32_t vpcCount = 1;

    /** Vector length (elements) of each VPC in the batch. */
    std::uint32_t vectorLen = 0;

    /** Up to two direct dependencies; kNoBatch when unused. */
    std::uint32_t depA = kNoBatch;
    std::uint32_t depB = kNoBatch;

    /**
     * Barrier batches additionally wait for every earlier batch
     * (used sparingly, e.g. between operations of a task).
     */
    bool barrier = false;

    /**
     * This batch is recovery-ladder traffic (runtime/recovery.hh):
     * a journal snapshot/rollback copy or the re-execution of a
     * rolled-back VPC. The executor accounts it under the separate
     * Recovery energy and cycle category so fault-recovery overhead
     * never blends into workload traffic.
     */
    bool recovery = false;

    /**
     * Run length: this descriptor stands for @c repeat logical
     * batches. Kind, vpcCount, vectorLen and the recovery flag
     * are shared by the whole run; only the first batch carries
     * @c barrier. Logical batch r of the run has subarray
     * `subarray + r * subarrayStep` (likewise dstSubarray, depA,
     * depB, all modulo 2^32); a kNoBatch dependency has step 0 and
     * stays kNoBatch.
     */
    std::uint32_t repeat = 1;
    std::int32_t subarrayStep = 0;
    std::int32_t dstSubarrayStep = 0;
    std::int32_t depAStep = 0;
    std::int32_t depBStep = 0;

    /** Logical index of the run's first batch; push() assigns it. */
    std::uint32_t first = 0;

    /** Total elements touched by one logical batch. */
    std::uint64_t
    elements() const
    {
        return std::uint64_t(vpcCount) * vectorLen;
    }

    bool operator==(const VpcBatch &) const = default;
};

/** A complete schedule plus its Table IV-style counters. */
struct VpcSchedule
{
    /**
     * Run descriptors in issue order, appended by push() and
     * pushRun(). Each descriptor's @c first is the sum of the
     * repeats before it.
     */
    std::vector<VpcBatch> batches;

    /**
     * Per task-graph op: index of the batch whose completion
     * publishes the op's result at its destination (for ops whose
     * results are collected, the final collect TRAN — not the last
     * compute). kNoBatch for host-side ops that emit no VPCs.
     * Parallel to TaskGraph::ops; filled by the planner.
     */
    std::vector<std::uint32_t> opResultBatch;

    /** Number of logical batches (not descriptors). */
    std::uint64_t
    batchCount() const
    {
        return batches.empty()
            ? 0
            : std::uint64_t(batches.back().first) + batches.back().repeat;
    }

    /** Count PIM (MUL/SMUL/ADD) VPCs. */
    std::uint64_t
    pimVpcs() const
    {
        std::uint64_t n = 0;
        for (const auto &b : batches)
            if (isPimVpc(b.kind))
                n += std::uint64_t(b.vpcCount) * b.repeat;
        return n;
    }

    /** Count data-movement (TRAN) VPCs. */
    std::uint64_t
    moveVpcs() const
    {
        std::uint64_t n = 0;
        for (const auto &b : batches)
            if (!isPimVpc(b.kind))
                n += std::uint64_t(b.vpcCount) * b.repeat;
        return n;
    }

    /**
     * Longest dependency distance `i - dep` over every logical batch
     * i and each of its dependencies; 0 when no batch has one. Within
     * a run the distance is affine in the repeat index, so the run's
     * two ends bound it: O(descriptors). An end whose dependency is
     * not in [0, i) is skipped; walking the batches finds it.
     */
    std::uint64_t
    maxDepDistance() const
    {
        std::uint64_t longest = 0;
        for (const VpcBatch &run : batches) {
            // Batch r of the run is first + r and depends on
            // dep + r * step: distance d0 + r * (1 - step).
            const std::int64_t last = std::int64_t(run.repeat) - 1;
            const std::pair<std::uint32_t, std::int32_t> deps[] = {
                {run.depA, run.depAStep}, {run.depB, run.depBStep}};
            for (const auto &[dep, step] : deps) {
                if (dep == kNoBatch)
                    continue;
                const std::int64_t d0 = std::int64_t(run.first) - dep;
                const std::int64_t d1 =
                    d0 + last * (1 - std::int64_t(step));
                if (d0 > 0)
                    longest = std::max(longest, std::uint64_t(d0));
                if (d1 > 0 && d1 <= run.first + last)
                    longest = std::max(longest, std::uint64_t(d1));
            }
        }
        return longest;
    }

    /**
     * Call @p fn(index, batch) for every logical batch in issue
     * order. Each batch comes as a run of one (repeat 1, steps 0,
     * first == index), exactly as it was pushed.
     */
    template <typename Fn>
    void
    forEachBatch(Fn &&fn) const
    {
        forEachBatch([](const VpcBatch &) {}, fn);
    }

    /**
     * forEachBatch(fn), calling @p onRun(run) once per descriptor
     * before that descriptor's logical batches. What a run's batches
     * share (kind, vpcCount, vectorLen, recovery) can be worked out
     * there once instead of once per batch.
     */
    template <typename RunFn, typename Fn>
    void
    forEachBatch(RunFn &&onRun, Fn &&fn) const
    {
        for (const VpcBatch &run : batches) {
            onRun(run);
            VpcBatch b = run;
            b.repeat = 1;
            b.subarrayStep = b.dstSubarrayStep = 0;
            b.depAStep = b.depBStep = 0;
            for (std::uint32_t r = 0; r < run.repeat; ++r) {
                fn(b.first, std::as_const(b));
                b.barrier = false;
                ++b.first;
                b.subarray += std::uint32_t(run.subarrayStep);
                b.dstSubarray += std::uint32_t(run.dstSubarrayStep);
                b.depA += std::uint32_t(run.depAStep);
                b.depB += std::uint32_t(run.depBStep);
            }
        }
    }

    /**
     * Append one logical batch, returning its index for dependency
     * wiring. The batch extends the last descriptor when it continues
     * that run's affine pattern exactly, and opens a new descriptor
     * otherwise.
     */
    std::uint32_t
    push(const VpcBatch &batch)
    {
        SPIM_ASSERT(batch.repeat == 1, "push takes one logical batch, "
                    "not a run of ", batch.repeat);
        const std::uint64_t index = batchCount();
        if (index >= kNoBatch)
            SPIM_FATAL("schedule holds ", index, " batches, the most a "
                       "32-bit batch index can address");
        SPIM_ASSERT(batch.depA == kNoBatch || batch.depA < index,
                    "dependency on a future batch");
        SPIM_ASSERT(batch.depB == kNoBatch || batch.depB < index,
                    "dependency on a future batch");
        if (batches.empty() || !extend(batches.back(), batch)) {
            batches.push_back(batch);
            batches.back().first = std::uint32_t(index);
        }
        return std::uint32_t(index);
    }

    /**
     * Append the @c run.repeat logical batches of @p run (its
     * @c first is ignored), with exactly the effect of that many
     * push() calls, in O(1); returns the first batch's index. The
     * first min(repeat, 3) batches go through push(): whatever they
     * extended or opened, the last descriptor then ends in two
     * batches of the run, so it holds the run's steps and every
     * later batch would extend it. The rest are added to its repeat.
     */
    std::uint32_t
    pushRun(const VpcBatch &run)
    {
        SPIM_ASSERT(run.repeat > 0, "empty run");
        SPIM_ASSERT((run.depA != kNoBatch || run.depAStep == 0) &&
                        (run.depB != kNoBatch || run.depBStep == 0),
                    "a kNoBatch dependency has step 0");
        const std::uint64_t index = batchCount();
        const std::uint64_t last = index + run.repeat - 1;
        if (last >= kNoBatch)
            SPIM_FATAL("schedule holds ", index, " batches; a run of ",
                       run.repeat, " passes the most a 32-bit batch "
                       "index can address");
        // Each dependency's distance back is affine in the repeat
        // index, so both ends of the run bound it.
        const std::pair<std::uint32_t, std::int32_t> deps[] = {
            {run.depA, run.depAStep}, {run.depB, run.depBStep}};
        for (const auto &[dep, step] : deps) {
            if (dep == kNoBatch)
                continue;
            const std::int64_t dep_last =
                dep + std::int64_t(run.repeat - 1) * step;
            SPIM_ASSERT(dep < index && dep_last >= 0 &&
                            std::uint64_t(dep_last) < last,
                        "dependency on a future batch");
        }

        VpcBatch b = run;
        b.repeat = 1;
        b.subarrayStep = b.dstSubarrayStep = 0;
        b.depAStep = b.depBStep = 0;
        const std::uint32_t head = std::min<std::uint32_t>(run.repeat, 3);
        for (std::uint32_t r = 0; r < head; ++r) {
            push(b);
            b.barrier = false;
            b.subarray += std::uint32_t(run.subarrayStep);
            b.dstSubarray += std::uint32_t(run.dstSubarrayStep);
            b.depA += std::uint32_t(run.depAStep);
            b.depB += std::uint32_t(run.depBStep);
        }
        if (run.repeat > head) {
            VpcBatch &tail = batches.back();
            SPIM_ASSERT(tail.repeat >= 2 &&
                            tail.subarrayStep == run.subarrayStep &&
                            tail.dstSubarrayStep == run.dstSubarrayStep &&
                            tail.depAStep == run.depAStep &&
                            tail.depBStep == run.depBStep,
                        "run's head left no descriptor with its steps");
            tail.repeat += run.repeat - head;
        }
        return std::uint32_t(index);
    }

  private:
    /** Grow @p run by @p b if b is the run's next batch. */
    static bool
    extend(VpcBatch &run, const VpcBatch &b)
    {
        if (b.barrier || b.kind != run.kind ||
            b.vpcCount != run.vpcCount || b.vectorLen != run.vectorLen ||
            b.recovery != run.recovery ||
            (b.depA == kNoBatch) != (run.depA == kNoBatch) ||
            (b.depB == kNoBatch) != (run.depB == kNoBatch))
            return false;
        if (run.repeat == 1) {
            // The second batch fixes the steps.
            run.subarrayStep = std::int32_t(b.subarray - run.subarray);
            run.dstSubarrayStep =
                std::int32_t(b.dstSubarray - run.dstSubarray);
            run.depAStep = std::int32_t(b.depA - run.depA);
            run.depBStep = std::int32_t(b.depB - run.depB);
        } else {
            auto at = [&run](std::uint32_t base, std::int32_t step) {
                return base + run.repeat * std::uint32_t(step);
            };
            if (at(run.subarray, run.subarrayStep) != b.subarray ||
                at(run.dstSubarray, run.dstSubarrayStep) !=
                    b.dstSubarray ||
                at(run.depA, run.depAStep) != b.depA ||
                at(run.depB, run.depBStep) != b.depB)
                return false;
        }
        ++run.repeat;
        return true;
    }
};

} // namespace streampim

#endif // STREAMPIM_RUNTIME_SCHEDULE_HH_
