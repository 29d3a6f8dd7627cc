#include "runtime/tiler.hh"

#include <algorithm>

#include "common/log.hh"

namespace streampim
{

Tiler::Tiler(const SystemConfig &config, const TilerConfig &tiler)
    : tilerCfg_(tiler)
{
    config.validate();
    capacity_ = 2 * config.rm.bytesPerSubarray();
    budget_ = config.rm.matBytes;
}

std::uint32_t
Tiler::tileEdgeForBudget(std::uint64_t budget,
                         std::uint32_t bytes_per_element)
{
    SPIM_ASSERT(bytes_per_element > 0, "degenerate tile footprint");
    std::uint32_t edge = 1;
    while (std::uint64_t(edge) * 2 * edge * 2 * bytes_per_element <=
           budget)
        edge *= 2;
    return edge;
}

bool
Tiler::needsTiling(std::uint32_t n, std::uint32_t k,
                   std::uint32_t m) const
{
    const std::uint64_t a = std::uint64_t(n) * k;
    const std::uint64_t b = std::uint64_t(k) * m;
    const std::uint64_t c = std::uint64_t(n) * m;
    return a > capacity_ || b > capacity_ || c > capacity_;
}

bool
Tiler::needsTiling(const TaskGraph &graph, const MatrixOp &op) const
{
    if (op.kind != MatOpKind::MatMul)
        return false;
    if (op.tiled)
        return true;
    const MatrixDesc &a = graph.matrices[op.a];
    const MatrixDesc &b = graph.matrices[op.b];
    return needsTiling(a.rows, a.cols, b.cols);
}

MatmulTiling
MatmulTiling::build(std::uint32_t n, std::uint32_t k, std::uint32_t m,
                    std::uint32_t tile_rows, std::uint32_t tile_k,
                    std::uint32_t tile_cols, std::uint32_t edge)
{
    SPIM_ASSERT(n > 0 && k > 0 && m > 0,
                "degenerate matmul shape ", n, "x", k, "x", m);
    MatmulTiling t;
    t.n = n;
    t.k = k;
    t.m = m;
    t.tileRows = std::min(n, tile_rows != 0 ? tile_rows : edge);
    t.tileK = std::min(k, tile_k != 0 ? tile_k : edge);
    t.tileCols = std::min(m, tile_cols != 0 ? tile_cols : edge);
    t.iTiles = (n + t.tileRows - 1) / t.tileRows;
    t.kTiles = (k + t.tileK - 1) / t.tileK;
    t.jTiles = (m + t.tileCols - 1) / t.tileCols;
    return t;
}

MatmulTiling
Tiler::tile(std::uint32_t n, std::uint32_t k, std::uint32_t m) const
{
    return MatmulTiling::build(n, k, m, tilerCfg_.tileRows,
                               tilerCfg_.tileK, tilerCfg_.tileCols,
                               tileEdgeForBudget(budget_));
}

} // namespace streampim
