/**
 * @file
 * ConflictGraph: the dependency DAG behind the parallel functional
 * VPC engine.
 *
 * The functional StreamPimSystem drains its VPC queue as one batch.
 * Each VPC touches a set of subarrays — the executing subarray plus
 * every subarray its remote-operand staging, store-out or TRAN
 * transfer reads or writes — encoded as a 64-bit resource mask (the
 * functional geometry is capped at 64 subarrays; streams over wider
 * resource sets use the multi-word constructor). Two VPCs conflict
 * exactly when their masks intersect: they would drive the same
 * mats, wear counters and fault-injector RNG stream, so they must
 * execute in submit order. Non-conflicting VPCs commute: every
 * per-subarray structure still sees exactly its own subarray-local
 * subsequence of the batch, which is what makes parallel execution
 * byte-identical to serial execution.
 *
 * The graph is built with one pass over the stream — each task
 * depends on the latest earlier task touching any of its resources —
 * and one pass that scatters the edges into CSR successor lists.
 * The rules of Sec. IV fall out of the masks alone:
 *  - same-subarray VPCs chain in submit order (shared exec bit);
 *  - TRAN VPCs carry both their source and destination subarray
 *    ranges, so they order against producers of the source and
 *    consumers of the destination (src -> dst edges);
 *  - a host-level read/write modeled as a task would carry the full
 *    mask of its address range — a mask of ~0 acts as a barrier.
 *    (StreamPimSystem needs no such node today: its host API is
 *    only legal between processQueue() calls, which are natural
 *    barriers.)
 */

#ifndef STREAMPIM_RUNTIME_CONFLICT_GRAPH_HH_
#define STREAMPIM_RUNTIME_CONFLICT_GRAPH_HH_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace streampim
{

/**
 * Dependency DAG over an ordered task stream of resource masks.
 *
 * Successors are stored in CSR form (one offsets array, one flat
 * successor array), and build() reuses every buffer, so rebuilding
 * one graph per round allocates nothing once the buffers have grown
 * to the largest round seen.
 */
class ConflictGraph
{
  public:
    /** An empty graph; fill it with build(). */
    ConflictGraph() = default;

    /**
     * Build the graph of @p words. With @p words_per_task = 1 each
     * element is one task's mask, in stream order, and task i
     * depends on the latest j < i with words[j] & words[i] != 0,
     * once per such j. Streams over more than 64 resources give each
     * task @p words_per_task consecutive words (task i's bit for
     * resource r is word i * words_per_task + r / 64, bit r % 64);
     * @p words must be an exact multiple of @p words_per_task.
     */
    explicit ConflictGraph(std::span<const std::uint64_t> words,
                           std::size_t words_per_task = 1);

    /** Replace this graph with the one the constructor builds,
     * reusing the buffers in place. */
    void build(std::span<const std::uint64_t> words,
               std::size_t words_per_task = 1);

    std::size_t size() const { return preds_.size(); }

    /** Number of direct dependencies of task @p i. */
    std::uint32_t
    predecessors(std::size_t i) const
    {
        return preds_[i];
    }

    /** Tasks directly unblocked by task @p i, in stream order. */
    std::span<const std::uint32_t>
    successors(std::size_t i) const
    {
        return {succs_.data() + offsets_[i],
                offsets_[i + 1] - offsets_[i]};
    }

    /** Dependency-free tasks, in stream order. */
    const std::vector<std::uint32_t> &roots() const { return roots_; }

    /** Total direct-dependency edges. */
    std::uint64_t edges() const { return succs_.size(); }

  private:
    std::vector<std::uint32_t> preds_;   //!< per task
    std::vector<std::uint32_t> offsets_; //!< size() + 1 CSR offsets
    std::vector<std::uint32_t> succs_;   //!< flat, grouped by task
    std::vector<std::uint32_t> roots_;
    /** build() scratch: the per-resource last user, and every
     * task's predecessor list in stream order. @{ */
    std::vector<std::uint32_t> last_;
    std::vector<std::uint32_t> edgePreds_;
    /** @} */
};

} // namespace streampim

#endif // STREAMPIM_RUNTIME_CONFLICT_GRAPH_HH_
