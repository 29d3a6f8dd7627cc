#include "runtime/conflict_graph.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/log.hh"

namespace streampim
{

ConflictGraph::ConflictGraph(std::span<const std::uint64_t> words,
                             std::size_t words_per_task)
{
    build(words, words_per_task);
}

void
ConflictGraph::build(std::span<const std::uint64_t> words,
                     std::size_t words_per_task)
{
    constexpr std::uint32_t kNone =
        std::numeric_limits<std::uint32_t>::max();
    SPIM_ASSERT(words_per_task > 0,
                "a task mask needs at least one word");
    SPIM_ASSERT(words.size() % words_per_task == 0,
                "mask words (", words.size(),
                ") are not a multiple of the task width (",
                words_per_task, ")");
    const std::size_t tasks = words.size() / words_per_task;
    SPIM_ASSERT(tasks < kNone, "task stream too large");

    preds_.assign(tasks, 0);
    offsets_.assign(tasks + 1, 0);
    roots_.clear();
    last_.assign(64 * words_per_task, kNone);
    edgePreds_.clear();

    // Pass 1: each task's distinct predecessors, appended in stream
    // order; offsets_[p + 1] counts p's successors.
    for (std::uint32_t i = 0; i < tasks; ++i) {
        const std::size_t begin = edgePreds_.size();
        for (std::size_t w = 0; w < words_per_task; ++w) {
            const std::size_t base = 64 * w;
            for (std::uint64_t m = words[i * words_per_task + w];
                 m != 0; m &= m - 1) {
                const std::size_t s =
                    base + unsigned(std::countr_zero(m));
                if (last_[s] != kNone)
                    edgePreds_.push_back(last_[s]);
                last_[s] = i;
            }
        }
        const auto first = edgePreds_.begin() + long(begin);
        std::sort(first, edgePreds_.end());
        edgePreds_.erase(std::unique(first, edgePreds_.end()),
                         edgePreds_.end());
        preds_[i] = std::uint32_t(edgePreds_.size() - begin);
        for (auto p = first; p != edgePreds_.end(); ++p)
            offsets_[*p + 1]++;
        if (preds_[i] == 0)
            roots_.push_back(i);
    }
    SPIM_ASSERT(edgePreds_.size() < kNone, "too many edges");

    // Pass 2: scatter. offsets_[p] serves as p's write cursor and
    // ends at p's end offset; tasks are visited in stream order, so
    // every successor list comes out in stream order.
    for (std::size_t i = 0; i < tasks; ++i)
        offsets_[i + 1] += offsets_[i];
    succs_.resize(edgePreds_.size());
    std::size_t e = 0;
    for (std::uint32_t i = 0; i < tasks; ++i)
        for (std::uint32_t k = 0; k < preds_[i]; ++k)
            succs_[offsets_[edgePreds_[e++]]++] = i;
    for (std::size_t i = tasks; i > 0; --i)
        offsets_[i] = offsets_[i - 1];
    offsets_[0] = 0;
}

} // namespace streampim
