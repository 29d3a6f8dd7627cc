#include "runtime/tiler.hh"

#include <algorithm>

#include "common/log.hh"

namespace streampim
{

MatmulTiling
MatmulTiling::build(std::uint32_t n, std::uint32_t k, std::uint32_t m,
                    std::uint32_t edge)
{
    SPIM_ASSERT(n > 0 && k > 0 && m > 0,
                "degenerate matmul shape ", n, "x", k, "x", m);
    SPIM_ASSERT(edge > 0, "degenerate tile edge");
    MatmulTiling t;
    t.n = n;
    t.k = k;
    t.m = m;
    t.tileRows = std::min(n, edge);
    t.tileK = std::min(k, edge);
    t.tileCols = std::min(m, edge);
    t.iTiles = (n + t.tileRows - 1) / t.tileRows;
    t.kTiles = (k + t.tileK - 1) / t.tileK;
    t.jTiles = (m + t.tileCols - 1) / t.tileCols;
    return t;
}

TileTask
MatmulTiling::task(std::uint64_t t) const
{
    SPIM_ASSERT(t < tasks(), "tile task ", t, " past the grid");
    TileTask task;
    task.kk = std::uint32_t(t % kTiles);
    task.tile = t / kTiles;
    task.i = std::uint32_t(task.tile / jTiles);
    task.j = std::uint32_t(task.tile % jTiles);
    task.kpos = task.kk * tileK;
    task.rows = rowsOf(task.i);
    task.depth = kOf(task.kk);
    task.cols = colsOf(task.j);
    return task;
}

std::uint32_t
tileEdgeForBudget(std::uint64_t budget, std::uint32_t bytes_per_element)
{
    SPIM_ASSERT(bytes_per_element > 0, "degenerate tile footprint");
    std::uint32_t edge = 1;
    while (std::uint64_t(edge) * 2 * edge * 2 * bytes_per_element <=
           budget)
        edge *= 2;
    return edge;
}

bool
needsTiling(const RmParams &rm, std::uint32_t n, std::uint32_t k,
            std::uint32_t m)
{
    const std::uint64_t capacity = 2 * rm.bytesPerSubarray();
    const std::uint64_t a = std::uint64_t(n) * k;
    const std::uint64_t b = std::uint64_t(k) * m;
    const std::uint64_t c = std::uint64_t(n) * m;
    return a > capacity || b > capacity || c > capacity;
}

bool
needsTiling(const RmParams &rm, const TaskGraph &graph,
            const MatrixOp &op)
{
    if (op.kind != MatOpKind::MatMul)
        return false;
    if (op.tiled)
        return true;
    const MatrixDesc &a = graph.matrices[op.a];
    const MatrixDesc &b = graph.matrices[op.b];
    return needsTiling(rm, a.rows, a.cols, b.cols);
}

std::vector<RowBlock>
partitionRows(std::uint32_t n, unsigned devices)
{
    SPIM_ASSERT(devices >= 1, "partitionRows needs >= 1 device");
    std::vector<RowBlock> blocks(devices);
    const auto per =
        std::uint32_t((std::uint64_t(n) + devices - 1) / devices);
    for (unsigned d = 0; d < devices && std::uint64_t(d) * per < n;
         ++d)
        blocks[d] = {d * per, std::min(per, n - d * per)};
    return blocks;
}

} // namespace streampim
