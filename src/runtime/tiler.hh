/**
 * @file
 * The tiling layer: the one place that knows the tile geometry, the
 * tile-task order, the out-of-core fit rule and the row split across
 * devices. The timed lowering (Planner::lowerTiledMatMul), the
 * functional runner (core/tiled_matmul.cc) and the sharded runners
 * (core/sharded_system.cc) all read them from here.
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
 *
 * Two things stay per path. Emission: the timed lowering emits a
 * task as batches over a group of up to 64 compute subarrays, the
 * functional runner as per-element VPCs on one compute subarray.
 * And the default edge: each path sizes it from its own budget with
 * tileEdgeForBudget. The sharded runners split the rows
 * across devices with partitionRows and tile within each device,
 * the same two-level split PrIM uses across and within DPUs.
 */

#ifndef STREAMPIM_RUNTIME_TILER_HH_
#define STREAMPIM_RUNTIME_TILER_HH_

#include <cstdint>
#include <vector>

#include "rm/params.hh"
#include "workloads/task_graph.hh"

namespace streampim
{

/** Knobs of the timed tiled lowering. */
struct TilerConfig
{
    /** Square tile edge in elements; 0 derives a mat-sized edge. */
    std::uint32_t tileEdge = 0;

    /** Overlap staging of tile t+1 with compute of tile t. */
    bool doubleBuffer = true;
};

/** One (i, j, kk) tile task: a k-slice of one C tile. */
struct TileTask
{
    std::uint32_t i = 0, j = 0, kk = 0; //!< grid coordinates
    std::uint32_t kpos = 0;  //!< first k of the slice (kk * tileK)
    std::uint32_t rows = 0;  //!< rows of C tile (i, j)
    std::uint32_t depth = 0; //!< k extent of the slice
    std::uint32_t cols = 0;  //!< columns of C tile (i, j)
    std::uint64_t tile = 0;  //!< C tile index, i * jTiles + j
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
     * The grid of the N x K x M product with square tiles of edge
     * @p edge, each tile edge clamped to the problem shape.
     */
    static MatmulTiling build(std::uint32_t n, std::uint32_t k,
                              std::uint32_t m, std::uint32_t edge);

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

    /**
     * Task @p t of the stream, in i -> j -> kk order: the k-slices
     * of one C tile are consecutive, so output-stationary
     * accumulation finishes a tile before the next one starts.
     */
    TileTask task(std::uint64_t t) const;
};

/**
 * Largest power-of-two tile edge T whose square-tile footprint
 * (@p bytes_per_element * (2T)^2 operand bytes) fits @p budget;
 * never less than 1. The timed lowering uses footprint 4 on the mat
 * capacity (A tile + B tile + C accumulator + headroom); the
 * functional runner uses 8 on the subarray capacity (it additionally
 * holds 4-byte partial dots).
 */
std::uint32_t tileEdgeForBudget(std::uint64_t budget,
                                std::uint32_t bytes_per_element = 4);

/**
 * The fit rule: an N x K x M matmul streams through the tiler when
 * some operand (A = N*K, B = K*M or C = N*M bytes at one byte per
 * element) exceeds twice one subarray of @p rm, i.e. cannot fit a
 * home subarray plus its staging partner. (The paper-scale
 * EXTRALARGE kernels at dim 2000 sit below this at the paper
 * geometry: the Table IV counts pin their untiled plans.)
 */
bool needsTiling(const RmParams &rm, std::uint32_t n, std::uint32_t k,
                 std::uint32_t m);

/**
 * needsTiling for a task-graph op: matmuls marked MatrixOp::tiled
 * always tile, other matmuls by the fit rule, other kinds never.
 */
bool needsTiling(const RmParams &rm, const TaskGraph &graph,
                 const MatrixOp &op);

/** One device's contiguous row range (rows == 0: idle shard). */
struct RowBlock
{
    std::uint32_t begin = 0;
    std::uint32_t rows = 0;

    bool idle() const { return rows == 0; }
};

/**
 * The row split across @p devices (>= 1) devices: contiguous blocks
 * of ceil(n / devices) rows in device order, the last live block
 * taking the remainder and devices past the row count idle (n == 0
 * idles them all). A pure function of (n, devices), so the
 * device-to-rows mapping and the merge order are deterministic.
 */
std::vector<RowBlock> partitionRows(std::uint32_t n, unsigned devices);

} // namespace streampim

#endif // STREAMPIM_RUNTIME_TILER_HH_
