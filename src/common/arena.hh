/**
 * @file
 * BumpArena: a capacity-retaining bump allocator for the engine's
 * per-VPC staging buffers.
 *
 * The functional datapath stages many short-lived byte buffers per
 * VPC (transfer-track replicas, bus payloads, result store-outs).
 * Their sizes are known at the moment of use and their lifetime ends
 * with the VPC, so a bump arena fits exactly: alloc() hands out
 * spans from a retained block, reset() recycles the whole arena in
 * O(1). After the first VPC of a given shape has grown the arena to
 * its high-water mark, every further VPC allocates nothing — the
 * zero-allocation steady-state contract of the hot path (checked by
 * tests/allocfree).
 *
 * Lifetime rules (DESIGN.md §9): spans returned by alloc() stay
 * valid until the next reset() — growth chains new blocks instead of
 * reallocating, so earlier spans never move. reset() invalidates
 * every outstanding span and, when the previous round spilled into
 * more than one block, coalesces the arena into a single block of
 * the total size (one allocation now, none afterwards). An arena is
 * owned by exactly one FunctionalSubarray and the conflict-graph
 * engine guarantees per-subarray exclusivity, so no locking is
 * needed.
 */

#ifndef STREAMPIM_COMMON_ARENA_HH_
#define STREAMPIM_COMMON_ARENA_HH_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/log.hh"

namespace streampim
{

/** Capacity-retaining bump allocator (see file comment). */
class BumpArena
{
  public:
    BumpArena() = default;
    BumpArena(const BumpArena &) = delete;
    BumpArena &operator=(const BumpArena &) = delete;

    /**
     * Allocate @p n bytes (8-byte aligned). Zero-filled only on the
     * first use of the underlying block; callers overwrite anyway.
     */
    std::span<std::uint8_t>
    alloc(std::size_t n)
    {
        const std::size_t need = align(n);
        if (active_ >= blocks_.size() ||
            blocks_[active_].used + need > blocks_[active_].size) {
            if (!advance(need))
                grow(need);
        }
        Block &b = blocks_[active_];
        std::uint8_t *p = b.data.get() + b.used;
        b.used += need;
        return {p, n};
    }

    /**
     * Recycle the arena: every outstanding span is invalidated, all
     * retained storage becomes available again. A multi-block arena
     * coalesces into one block of the total size so the steady state
     * is a single block and zero further allocations.
     */
    void
    reset()
    {
        if (blocks_.size() > 1) {
            std::size_t total = 0;
            for (const Block &b : blocks_)
                total += b.size;
            blocks_.clear();
            blocks_.push_back(makeBlock(total));
        } else if (!blocks_.empty()) {
            blocks_[0].used = 0;
        }
        active_ = 0;
    }

    /** Retained bytes across all blocks (tests/telemetry). */
    std::size_t
    capacityBytes() const
    {
        std::size_t total = 0;
        for (const Block &b : blocks_)
            total += b.size;
        return total;
    }

  private:
    static constexpr std::size_t kAlign = 8;
    static constexpr std::size_t kMinBlock = 4096;

    struct Block
    {
        std::unique_ptr<std::uint8_t[]> data;
        std::size_t size = 0;
        std::size_t used = 0;
    };

    static std::size_t
    align(std::size_t n)
    {
        return (n + kAlign - 1) & ~(kAlign - 1);
    }

    static Block
    makeBlock(std::size_t size)
    {
        Block b;
        b.size = size < kMinBlock ? kMinBlock : align(size);
        b.data = std::make_unique<std::uint8_t[]>(b.size);
        return b;
    }

    /** Move to the next retained block with room, if any. */
    bool
    advance(std::size_t need)
    {
        while (active_ + 1 < blocks_.size()) {
            active_++;
            blocks_[active_].used = 0;
            if (need <= blocks_[active_].size)
                return true;
        }
        return false;
    }

    /** Chain a new block; earlier spans stay valid (no realloc). */
    void
    grow(std::size_t need)
    {
        std::size_t want = capacityBytes();
        want = want < need ? need : want; // at least double in total
        blocks_.push_back(makeBlock(want));
        active_ = blocks_.size() - 1;
    }

    std::vector<Block> blocks_;
    std::size_t active_ = 0;
};

} // namespace streampim

#endif // STREAMPIM_COMMON_ARENA_HH_
