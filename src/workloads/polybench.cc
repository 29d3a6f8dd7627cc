#include "workloads/polybench.hh"

#include "common/log.hh"

namespace streampim
{

const char *
polybenchName(PolybenchKernel k)
{
    switch (k) {
      case PolybenchKernel::TwoMm: return "2mm";
      case PolybenchKernel::ThreeMm: return "3mm";
      case PolybenchKernel::Gemm: return "gemm";
      case PolybenchKernel::Syrk: return "syrk";
      case PolybenchKernel::Syr2k: return "syr2k";
      case PolybenchKernel::Atax: return "atax";
      case PolybenchKernel::Bicg: return "bicg";
      case PolybenchKernel::Gesummv: return "gesu";
      case PolybenchKernel::Mvt: return "mvt";
    }
    return "?";
}

const std::vector<PolybenchKernel> &
allPolybenchKernels()
{
    static const std::vector<PolybenchKernel> kAll = {
        PolybenchKernel::TwoMm, PolybenchKernel::ThreeMm,
        PolybenchKernel::Gemm, PolybenchKernel::Syrk,
        PolybenchKernel::Syr2k, PolybenchKernel::Atax,
        PolybenchKernel::Bicg, PolybenchKernel::Gesummv,
        PolybenchKernel::Mvt,
    };
    return kAll;
}

const std::vector<PolybenchKernel> &
smallPolybenchKernels()
{
    static const std::vector<PolybenchKernel> kSmall = {
        PolybenchKernel::Atax, PolybenchKernel::Bicg,
        PolybenchKernel::Gesummv, PolybenchKernel::Mvt,
    };
    return kSmall;
}

namespace
{

/**
 * Scale an EXTRALARGE dimension by dim/2000. Small dims round the
 * quotient down to 0 (e.g. 1600*1/2000), which would build a
 * degenerate matrix — clamp every scaled dimension to at least 1.
 */
unsigned
sc(unsigned extralarge, unsigned dim)
{
    std::uint64_t v = std::uint64_t(extralarge) * dim / 2000;
    return v < 1 ? 1u : unsigned(v);
}

TaskGraph
make2mm(unsigned dim)
{
    // D := alpha*A*B*C + beta*D  (polybench 2mm, EXTRALARGE
    // NI/NJ/NK/NL = 1600/1800/2200/2400).
    unsigned ni = sc(1600, dim), nj = sc(1800, dim);
    unsigned nk = sc(2200, dim), nl = sc(2400, dim);
    TaskGraph g;
    g.name = "2mm";
    auto A = g.addMatrix("A", ni, nk);
    auto B = g.addMatrix("B", nk, nj);
    auto C = g.addMatrix("C", nj, nl);
    auto D = g.addMatrix("D", ni, nl);
    auto tmp = g.addMatrix("tmp", ni, nj);
    auto tmp2 = g.addMatrix("tmp2", ni, nl);
    auto bd = g.addMatrix("betaD", ni, nl);
    g.addOp(MatOpKind::MatMul, A, B, tmp);      // tmp = A*B
    g.addOp(MatOpKind::Scale, tmp, tmp, tmp);   // tmp *= alpha
    g.addOp(MatOpKind::MatMul, tmp, C, tmp2);   // tmp2 = tmp*C
    g.addOp(MatOpKind::Scale, D, D, bd);        // bd = beta*D
    g.addOp(MatOpKind::MatAdd, tmp2, bd, D);    // D = tmp2 + bd
    return g;
}

TaskGraph
make3mm(unsigned dim)
{
    // G = (A*B)*(C*D) (EXTRALARGE NI..NM = 1600/1800/2000/2200/2400).
    unsigned ni = sc(1600, dim), nj = sc(1800, dim);
    unsigned nk = sc(2000, dim), nl = sc(2200, dim);
    unsigned nm = sc(2400, dim);
    TaskGraph g;
    g.name = "3mm";
    auto A = g.addMatrix("A", ni, nk);
    auto B = g.addMatrix("B", nk, nj);
    auto C = g.addMatrix("C", nj, nm);
    auto D = g.addMatrix("D", nm, nl);
    auto E = g.addMatrix("E", ni, nj);
    auto F = g.addMatrix("F", nj, nl);
    auto G = g.addMatrix("G", ni, nl);
    g.addOp(MatOpKind::MatMul, A, B, E);
    g.addOp(MatOpKind::MatMul, C, D, F);
    g.addOp(MatOpKind::MatMul, E, F, G);
    return g;
}

TaskGraph
makeGemm(unsigned dim)
{
    // C' = alpha*A*B + beta*C (EXTRALARGE NI/NJ/NK = 2000/2300/2600).
    unsigned ni = sc(2000, dim), nj = sc(2300, dim), nk = sc(2600, dim);
    TaskGraph g;
    g.name = "gemm";
    auto A = g.addMatrix("A", ni, nk);
    auto B = g.addMatrix("B", nk, nj);
    auto C = g.addMatrix("C", ni, nj);
    auto AB = g.addMatrix("AB", ni, nj);
    auto bc = g.addMatrix("betaC", ni, nj);
    g.addOp(MatOpKind::MatMul, A, B, AB);
    g.addOp(MatOpKind::Scale, AB, AB, AB);
    g.addOp(MatOpKind::Scale, C, C, bc);
    g.addOp(MatOpKind::MatAdd, AB, bc, C);
    return g;
}

TaskGraph
makeSyrk(unsigned dim)
{
    // C' = alpha*A*A^T + beta*C (EXTRALARGE M/N = 2000/2600).
    unsigned m = sc(2000, dim), n = sc(2600, dim);
    TaskGraph g;
    g.name = "syrk";
    auto A = g.addMatrix("A", n, m);
    auto At = g.addMatrix("At", m, n); // A^T as a second layout
    auto C = g.addMatrix("C", n, n);
    auto AAt = g.addMatrix("AAt", n, n);
    auto bc = g.addMatrix("betaC", n, n);
    g.addOp(MatOpKind::MatMul, A, At, AAt);
    g.addOp(MatOpKind::Scale, AAt, AAt, AAt);
    g.addOp(MatOpKind::Scale, C, C, bc);
    g.addOp(MatOpKind::MatAdd, AAt, bc, C);
    return g;
}

TaskGraph
makeSyr2k(unsigned dim)
{
    // C' = alpha*A*B^T + alpha*B*A^T + beta*C (M/N = 2000/2600).
    unsigned m = sc(2000, dim), n = sc(2600, dim);
    TaskGraph g;
    g.name = "syr2k";
    auto A = g.addMatrix("A", n, m);
    auto Bt = g.addMatrix("Bt", m, n);
    auto B = g.addMatrix("B", n, m);
    auto At = g.addMatrix("At", m, n);
    auto C = g.addMatrix("C", n, n);
    auto ABt = g.addMatrix("ABt", n, n);
    auto BAt = g.addMatrix("BAt", n, n);
    auto bc = g.addMatrix("betaC", n, n);
    g.addOp(MatOpKind::MatMul, A, Bt, ABt);
    g.addOp(MatOpKind::Scale, ABt, ABt, ABt);
    g.addOp(MatOpKind::MatMul, B, At, BAt);
    g.addOp(MatOpKind::Scale, BAt, BAt, BAt);
    g.addOp(MatOpKind::MatAdd, ABt, BAt, ABt);
    g.addOp(MatOpKind::Scale, C, C, bc);
    g.addOp(MatOpKind::MatAdd, ABt, bc, C);
    return g;
}

TaskGraph
makeAtax(unsigned dim)
{
    // y = A^T*(A*x) (EXTRALARGE M/N = 1900/2100).
    unsigned m = sc(1900, dim), n = sc(2100, dim);
    TaskGraph g;
    g.name = "atax";
    auto A = g.addMatrix("A", m, n);
    auto x = g.addMatrix("x", n, 1);
    auto tmp = g.addMatrix("tmp", m, 1);
    auto y = g.addMatrix("y", n, 1);
    g.addOp(MatOpKind::MatVec, A, x, tmp);   // tmp = A*x
    g.addOp(MatOpKind::MatVecT, A, tmp, y);  // y = A^T*tmp
    return g;
}

TaskGraph
makeBicg(unsigned dim)
{
    // q = A*p, s = A^T*r (EXTRALARGE N/M = 1900/2100).
    unsigned n = sc(1900, dim), m = sc(2100, dim);
    TaskGraph g;
    g.name = "bicg";
    auto A = g.addMatrix("A", n, m);
    auto p = g.addMatrix("p", m, 1);
    auto r = g.addMatrix("r", n, 1);
    auto q = g.addMatrix("q", n, 1);
    auto s = g.addMatrix("s", m, 1);
    g.addOp(MatOpKind::MatVec, A, p, q);
    g.addOp(MatOpKind::MatVecT, A, r, s);
    return g;
}

TaskGraph
makeGesummv(unsigned dim)
{
    // y = alpha*A*x + beta*B*x (EXTRALARGE N = 2800).
    unsigned n = sc(2800, dim);
    TaskGraph g;
    g.name = "gesu";
    auto A = g.addMatrix("A", n, n);
    auto B = g.addMatrix("B", n, n);
    auto x = g.addMatrix("x", n, 1);
    auto t1 = g.addMatrix("t1", n, 1);
    auto t2 = g.addMatrix("t2", n, 1);
    auto y = g.addMatrix("y", n, 1);
    g.addOp(MatOpKind::MatVec, A, x, t1);
    g.addOp(MatOpKind::Scale, t1, t1, t1);
    g.addOp(MatOpKind::MatVec, B, x, t2);
    g.addOp(MatOpKind::Scale, t2, t2, t2);
    g.addOp(MatOpKind::MatAdd, t1, t2, y);
    return g;
}

TaskGraph
makeMvt(unsigned dim)
{
    // x1 += A*y1, x2 += A^T*y2 (EXTRALARGE N = 2000).
    unsigned n = sc(2000, dim);
    TaskGraph g;
    g.name = "mvt";
    auto A = g.addMatrix("A", n, n);
    auto x1 = g.addMatrix("x1", n, 1);
    auto y1 = g.addMatrix("y1", n, 1);
    auto x2 = g.addMatrix("x2", n, 1);
    auto y2 = g.addMatrix("y2", n, 1);
    auto t1 = g.addMatrix("t1", n, 1);
    auto t2 = g.addMatrix("t2", n, 1);
    g.addOp(MatOpKind::MatVec, A, y1, t1);
    g.addOp(MatOpKind::MatAdd, x1, t1, x1);
    g.addOp(MatOpKind::MatVecT, A, y2, t2);
    g.addOp(MatOpKind::MatAdd, x2, t2, x2);
    return g;
}

TaskGraph
build(PolybenchKernel kernel, unsigned dim)
{
    switch (kernel) {
      case PolybenchKernel::TwoMm: return make2mm(dim);
      case PolybenchKernel::ThreeMm: return make3mm(dim);
      case PolybenchKernel::Gemm: return makeGemm(dim);
      case PolybenchKernel::Syrk: return makeSyrk(dim);
      case PolybenchKernel::Syr2k: return makeSyr2k(dim);
      case PolybenchKernel::Atax: return makeAtax(dim);
      case PolybenchKernel::Bicg: return makeBicg(dim);
      case PolybenchKernel::Gesummv: return makeGesummv(dim);
      case PolybenchKernel::Mvt: return makeMvt(dim);
    }
    SPIM_PANIC("unknown kernel");
}

} // namespace

TaskGraph
makePolybench(PolybenchKernel kernel, unsigned dim)
{
    SPIM_ASSERT(dim >= 1, "dimension too small");
    return build(kernel, dim);
}

} // namespace streampim
