/**
 * @file
 * Tiler: decomposes out-of-core matmuls into mat-sized tile tasks.
 *
 * The untiled lowering (Planner::lowerMatMul) assumes every operand
 * fits its placement in one shot: A row-distributed over the compute
 * set, each B column streamed whole, C collected to a single home
 * subarray. Once an operand outgrows what a home subarray plus its
 * staging partner can hold, that plan degenerates — the out-of-core
 * gap the ROADMAP names. The tiler closes it with the classic
 * streaming dataflow (cf. the decoupled read/compute/write loops of
 * the apfp matmul kernel): the N x K x M product becomes a grid of
 * C tiles, each accumulated output-stationary over k-tiles,
 *
 *   for (i, j) in iTiles x jTiles:        // one C tile
 *     for kk in kTiles:                   // OS accumulation
 *       stage  A[i,kk], B[kk,j]           // backing -> staging set
 *       spread tiles over a compute group // staging -> subarrays
 *       MUL    partial dots (len tileK)
 *       ADD    partials into the C tile   // kk > 0
 *     collect C[i,j]                      // -> result home
 *
 * With double buffering, task t+1's staging transfers depend only on
 * the buffer's previous reader (task t-1's distribution), so they
 * overlap task t's compute; single buffering conservatively
 * serializes rounds at tile-task granularity. The conflict-graph
 * engine / executor resource model then give the overlap for free
 * because consecutive tasks target disjoint subarrays.
 *
 * Correctness of OS accumulation at 8-bit precision: the device
 * truncates every dot product to its low byte, and byte-wise ADD is
 * addition mod 256 — a homomorphism — so summing per-k-tile partial
 * low bytes equals the full dot's low byte exactly. Tiled results
 * are therefore bit-identical to untiled ones, not approximations.
 */

#ifndef STREAMPIM_RUNTIME_TILER_HH_
#define STREAMPIM_RUNTIME_TILER_HH_

#include <cstdint>

#include "core/system_config.hh"
#include "workloads/task_graph.hh"

namespace streampim
{

/** Knobs of the tiling layer. */
struct TilerConfig
{
    /** Tile shape in elements; 0 derives a square mat-sized tile. */
    std::uint32_t tileRows = 0;
    std::uint32_t tileCols = 0;
    std::uint32_t tileK = 0;

    /** Overlap staging of tile t+1 with compute of tile t. */
    bool doubleBuffer = true;
};

/** The tile grid of one N x K x M matmul (remainder-aware). */
struct MatmulTiling
{
    std::uint32_t n = 0, k = 0, m = 0;    //!< full problem shape
    std::uint32_t tileRows = 0;           //!< nominal tile shape
    std::uint32_t tileK = 0;
    std::uint32_t tileCols = 0;
    std::uint32_t iTiles = 0;             //!< grid extents
    std::uint32_t kTiles = 0;
    std::uint32_t jTiles = 0;

    /**
     * The grid of the N x K x M product: each tile edge is its
     * requested value, or @p edge when the request is 0, clamped to
     * the problem shape.
     */
    static MatmulTiling build(std::uint32_t n, std::uint32_t k,
                              std::uint32_t m, std::uint32_t tile_rows,
                              std::uint32_t tile_k,
                              std::uint32_t tile_cols,
                              std::uint32_t edge);

    /** Rows of row-block tile @p i (the last may be a remainder). */
    std::uint32_t
    rowsOf(std::uint32_t i) const
    {
        return i + 1 < iTiles ? tileRows
                              : n - i * tileRows;
    }

    /** Depth of k-tile @p kk. */
    std::uint32_t
    kOf(std::uint32_t kk) const
    {
        return kk + 1 < kTiles ? tileK : k - kk * tileK;
    }

    /** Columns of column-block tile @p j. */
    std::uint32_t
    colsOf(std::uint32_t j) const
    {
        return j + 1 < jTiles ? tileCols : m - j * tileCols;
    }

    /** Tile tasks in the stream: one per (i, j, kk). */
    std::uint64_t
    tasks() const
    {
        return std::uint64_t(iTiles) * jTiles * kTiles;
    }

    /** True when one tile covers the whole product. */
    bool
    trivial() const
    {
        return iTiles == 1 && kTiles == 1 && jTiles == 1;
    }
};

/** Derives tile grids and fit decisions from the geometry. */
class Tiler
{
  public:
    /**
     * Compute subarrays a single tile task fans out over. Caps the
     * per-task batch count so paper-scale grids stay replayable;
     * the compute set is carved into slots/kSlotsPerTile groups used
     * round-robin by C tile, which is what lets different C tiles
     * proceed concurrently.
     */
    static constexpr std::uint32_t kSlotsPerTile = 64;

    explicit Tiler(const SystemConfig &config,
                   const TilerConfig &tiler = TilerConfig{});

    const TilerConfig &config() const { return tilerCfg_; }

    /**
     * Out-of-core threshold: a matmul whose largest operand exceeds
     * this streams through the tiler. Twice the subarray capacity —
     * an operand that cannot fit a home subarray plus its
     * double-buffer staging partner must be tiled. (The paper-scale
     * EXTRALARGE kernels at dim 2000 sit below this on purpose: the
     * Table IV counts pin their untiled plans.)
     */
    std::uint64_t capacityBytes() const { return capacity_; }

    /**
     * Byte budget one tile's operands must fit: the mat capacity
     * (rm.matBytes) — tiles are mat-sized so one tile of A, one of B
     * and the C accumulator all live comfortably inside a subarray.
     */
    std::uint64_t tileBudgetBytes() const { return budget_; }

    /**
     * True when the N x K x M matmul must stream through the tiler:
     * some operand (A = N*K, B = K*M or C = N*M bytes at one byte
     * per element) exceeds capacityBytes().
     */
    bool needsTiling(std::uint32_t n, std::uint32_t k,
                     std::uint32_t m) const;

    /** needsTiling for a task-graph matmul op (or its tile hint). */
    bool needsTiling(const TaskGraph &graph,
                     const MatrixOp &op) const;

    /**
     * Build the tile grid: explicit TilerConfig tile dims win,
     * otherwise a square mat-sized edge is derived from the tile
     * budget; every dimension is clamped to the problem shape.
     */
    MatmulTiling tile(std::uint32_t n, std::uint32_t k,
                      std::uint32_t m) const;

    /**
     * Largest power-of-two tile edge T whose square-tile footprint
     * (@p bytes_per_element * T^2 operand bytes) fits @p budget;
     * never less than 1. The planner's timed lowering uses footprint
     * 4 (A tile + B tile + C accumulator + headroom); the functional
     * runner uses 8 (it additionally holds 4-byte partial dots).
     */
    static std::uint32_t tileEdgeForBudget(
        std::uint64_t budget, std::uint32_t bytes_per_element = 4);

  private:
    TilerConfig tilerCfg_;
    std::uint64_t capacity_;
    std::uint64_t budget_;
};

} // namespace streampim

#endif // STREAMPIM_RUNTIME_TILER_HH_
