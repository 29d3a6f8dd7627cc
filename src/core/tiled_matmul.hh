/**
 * @file
 * Functional streaming tiled matmul on StreamPimSystem.
 *
 * The bit-accurate sibling of Planner::lowerTiledMatMul (see
 * runtime/tiler.hh for the dataflow): an N x K x M product whose
 * operands live on a backing-store subarray streams through the
 * device tile by tile. Each (i, j, kk) tile task gathers its A-row
 * and B-column slices into a staging buffer with TRANs, spreads the
 * packed tiles to a compute subarray, runs one MUL per (row, col)
 * dot-product slice, and accumulates the partial low bytes into the
 * C-tile accumulator with 1-byte ADDs (output-stationary). The
 * accumulator is initialized device-side by 1-byte TRANs from the
 * first k-tile's partials — the host never writes intermediate
 * values, so non-Failed fault statuses keep the bit-exactness
 * guarantee end to end.
 *
 * Results are bit-identical to the untiled raw-MUL formulation and
 * to hostMatmulReference(): the device truncates dots to their low
 * byte and byte-wise ADD is addition mod 256, so summing per-k-tile
 * partial low bytes equals the full dot's low byte exactly.
 *
 * The VPC queue is finite; the runner flushes through
 * processQueue() whenever submission backs up, which naturally
 * yields the multi-round execution of an out-of-core stream. The
 * round structure is count-driven and deterministic, so outputs are
 * byte-identical at any job count.
 */

#ifndef STREAMPIM_CORE_TILED_MATMUL_HH_
#define STREAMPIM_CORE_TILED_MATMUL_HH_

#include <cstdint>
#include <span>
#include <vector>

#include "core/stream_pim.hh"
#include "rm/fault_injector.hh"
#include "runtime/recovery.hh"

namespace streampim
{

/** Knobs of the functional tiled-matmul runner. */
struct TiledMatmulConfig
{
    /**
     * Alternate between two staging buffers so consecutive tile
     * tasks never share one (the functional analogue of the timed
     * lowering's double buffering). Purely a dataflow choice —
     * results are bit-identical either way.
     */
    bool doubleBuffer = true;

    /** Worker threads for processQueue (0 = resolve from env). */
    unsigned jobs = 0;

    /**
     * Transactional recovery ladder (DESIGN.md §10). When enabled the
     * runner switches to a task-granular transactional dataflow: each
     * k-slice task journals the only state it carries forward (the
     * C-tile accumulator, plus the C rows on the collecting slice),
     * drains per task, and on a Failed record rolls the accumulator
     * back bit-exact and climbs the ladder — retry in place
     * (retryBudget), then quarantine the blamed compute subarray,
     * evacuate the in-flight accumulator onto the least-worn
     * survivor, and capacity-adaptively re-tile the remaining
     * k-range (replanBudget escalations per episode). Disabled (the
     * default), the original bulk dataflow runs unchanged.
     */
    RecoveryConfig recovery;
};

/** What one runTiledMatmul call did (telemetry for tests/benches). */
struct TiledMatmulStats
{
    std::uint64_t tileTasks = 0;
    std::uint64_t vpcs = 0;     //!< VPCs submitted (all kinds)
    std::uint64_t pimVpcs = 0;  //!< MUL + ADD subset
    std::uint64_t rounds = 0;   //!< processQueue flushes
    /** Worst fault-recovery outcome over every VPC (Clean when
     * injection is off); anything short of Failed keeps the result
     * bit-exact. Under the recovery path a Failed that the ladder
     * recovered also keeps it — the result is lost only when
     * recovery.unrecoverable > 0. */
    FaultStatus worstFault = FaultStatus::Clean;

    /** Ladder counters (all-zero unless config.recovery.enabled).
     * failedVpcs counts slice-task episodes entering the ladder;
     * retiles counts in-flight k-edge shrinks. */
    RecoveryStats recovery;

    /** k-edge the run ended with (== the starting tile edge unless a
     * quarantine-driven re-tile shrank it; 0 on the bulk path). */
    std::uint32_t finalTileK = 0;
};

/**
 * Host-side mod-256 reference: C[i][j] is the low byte of
 * sum_k A[i][k] * B[k][j], matching the device's truncating MUL.
 * @p a is N x K row-major, @p b is K x M row-major.
 */
std::vector<std::uint8_t> hostMatmulReference(
    std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
    std::uint32_t n, std::uint32_t k, std::uint32_t m);

/**
 * Stream the N x K x M product @p a * @p b through @p device
 * (@p a N x K row-major, @p b K x M row-major) and return C
 * (N x M row-major).
 *
 * The device's last subarray is the backing store (A, B transposed,
 * C); the second-to-last stages tiles in flight (sharing the
 * backing subarray when the geometry has fewer than three
 * subarrays); the rest compute. Operands may exceed any compute
 * subarray's capacity — only one tile's working set must fit, which
 * the runner checks up front. The device's engine workers are joined
 * before the call returns (StreamPimSystem::releaseWorkers).
 */
std::vector<std::uint8_t> runTiledMatmul(
    StreamPimSystem &device, std::span<const std::uint8_t> a,
    std::span<const std::uint8_t> b, std::uint32_t n,
    std::uint32_t k, std::uint32_t m,
    const TiledMatmulConfig &config = TiledMatmulConfig{},
    TiledMatmulStats *stats = nullptr);

} // namespace streampim

#endif // STREAMPIM_CORE_TILED_MATMUL_HH_
