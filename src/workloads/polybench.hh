/**
 * @file
 * The nine polybench linear-algebra workloads of Table IV.
 *
 * Each kernel is expressed as a TaskGraph of matrix operations, with
 * the exact computation of Table IV:
 *
 *   2mm    E = alpha*A*B*C + beta*D
 *   3mm    G = (A*B)*(C*D)
 *   gemm   C' = alpha*A*B + beta*C
 *   syrk   C' = alpha*A*A^T + beta*C
 *   syr2k  C' = alpha*A*B^T + alpha*B*A^T + beta*C
 *   atax   y = A^T*(A*x)
 *   bicg   q = A*p, s = A^T*r
 *   gesu   y = alpha*A*x + beta*B*x      (gesummv)
 *   mvt    x1 += A*y1, x2 += A^T*y2
 *
 * Shapes follow the polybench EXTRALARGE datasets ("we set the
 * vector dimension to 2000, which is a common configuration in
 * polybench"); a scale parameter shrinks every dimension
 * proportionally for fast runs.
 */

#ifndef STREAMPIM_WORKLOADS_POLYBENCH_HH_
#define STREAMPIM_WORKLOADS_POLYBENCH_HH_

#include <string>
#include <vector>

#include "workloads/task_graph.hh"

namespace streampim
{

/** The nine evaluated kernels. */
enum class PolybenchKernel
{
    TwoMm,
    ThreeMm,
    Gemm,
    Syrk,
    Syr2k,
    Atax,
    Bicg,
    Gesummv,
    Mvt,
};

/** Names as used in the paper's figures. */
const char *polybenchName(PolybenchKernel k);

/** All nine kernels in figure order. */
const std::vector<PolybenchKernel> &allPolybenchKernels();

/** The four small (matrix-vector) kernels of Fig. 3. */
const std::vector<PolybenchKernel> &smallPolybenchKernels();

/**
 * Build the task graph of a kernel.
 * @param dim the base dimension, at least 1; the paper's
 *        configuration is 2000. Kernel dimensions scale as dim/2000
 *        of the EXTRALARGE dataset shapes, with every scaled
 *        dimension clamped to at least 1 so tiny scales stay valid.
 *        Whether a matmul is tiled is the planner's decision for
 *        its geometry (runtime/tiler.hh needsTiling), not the
 *        builder's.
 */
TaskGraph makePolybench(PolybenchKernel kernel, unsigned dim = 2000);

} // namespace streampim

#endif // STREAMPIM_WORKLOADS_POLYBENCH_HH_
