/**
 * @file
 * Test-side helpers for run-length VpcSchedules: the logical batches
 * of a schedule as a vector, and a generator of batch sequences made
 * of long affine runs with the breaks push() must respect.
 */

#ifndef STREAMPIM_TESTS_SUPPORT_SCHEDULES_HH_
#define STREAMPIM_TESTS_SUPPORT_SCHEDULES_HH_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/rng.hh"
#include "runtime/schedule.hh"

namespace streampim
{

/** Every logical batch of @p s, element i at logical index i. */
inline std::vector<VpcBatch>
expandedBatches(const VpcSchedule &s)
{
    std::vector<VpcBatch> out;
    out.reserve(s.batchCount());
    s.forEachBatch(
        [&out](std::uint32_t, const VpcBatch &b) { out.push_back(b); });
    return out;
}

/**
 * @p n logical batches in affine runs of up to 64 over @p subarrays
 * subarrays. Each run picks a kind, shape and flags, a subarray and
 * destination step in [-2, 2], and per dependency either none, a
 * fixed earlier batch (step 0), a trailing batch (step 1) or a
 * descending one (step -1). Within a run, about one batch in 24 has
 * a barrier and one in 24 flips a flag while keeping the affine
 * fields, so it would otherwise continue the run; and one in 12
 * moves one affine field (a subarray, or a dependency that is used)
 * off its lane, while the batches after it return to the lane.
 */
inline std::vector<VpcBatch>
runHeavyBatches(Rng &rng, unsigned n, std::uint32_t subarrays)
{
    std::vector<VpcBatch> out;
    out.reserve(n);
    // An affine field: value at run element r is base + r * step.
    struct Lane
    {
        std::uint32_t base = kNoBatch;
        std::int32_t step = 0;
        std::uint32_t at(std::uint32_t r) const
        {
            return base + r * std::uint32_t(step);
        }
    };
    // A subarray lane of @p len elements that stays in range.
    auto subarray_lane = [&](std::uint32_t len) {
        Lane l;
        l.step = std::int32_t(rng.below(5)) - 2;
        const std::uint32_t span = (len - 1) * std::uint32_t(
            std::abs(l.step));
        l.base = std::uint32_t(rng.below(subarrays - span));
        if (l.step < 0)
            l.base += span;
        return l;
    };
    // A dependency lane for a run starting at logical index @p i0.
    auto dep_lane = [&](std::uint32_t i0, std::uint32_t len) {
        Lane l;
        switch (i0 == 0 ? 0 : rng.below(4)) {
          case 0: // none
            break;
          case 1: // one fixed earlier batch
            l.base = std::uint32_t(rng.below(i0));
            break;
          case 2: // a trailing batch, a fixed distance back
            l.step = 1;
            l.base = i0 - 1 - std::uint32_t(rng.below(
                std::min<std::uint32_t>(i0, 8)));
            break;
          default: // walking backwards from the previous batch
            if (len <= i0) {
                l.step = -1;
                l.base = i0 - 1;
            }
            break;
        }
        return l;
    };
    // A value in [0, mod) other than @p v.
    auto other = [&rng](std::uint32_t v, std::uint32_t mod) {
        return (v + 1 + std::uint32_t(rng.below(mod - 1))) % mod;
    };

    while (out.size() < n) {
        const auto i0 = std::uint32_t(out.size());
        const auto len = std::min<std::uint32_t>(
            1 + std::uint32_t(rng.below(64)), n - i0);
        VpcBatch b;
        b.kind = VpcKind(rng.below(4));
        b.vpcCount = 1 + std::uint32_t(rng.below(8));
        b.vectorLen = 1 + std::uint32_t(rng.below(300));
        if (b.kind == VpcKind::Tran)
            rng.below(8); // unused draw; keeps each seed's schedule
        b.recovery = rng.below(8) == 0;
        const Lane src = subarray_lane(len);
        const Lane dst = subarray_lane(len);
        const Lane dep_a = dep_lane(i0, len);
        const Lane dep_b = dep_lane(i0, len);
        for (std::uint32_t r = 0; r < len; ++r) {
            b.subarray = src.at(r);
            b.dstSubarray = dst.at(r);
            b.depA = dep_a.at(r);
            b.depB = dep_b.at(r);
            b.barrier = r == 0 ? rng.below(8) == 0 : rng.below(24) == 0;
            if (r > 0 && rng.below(24) == 0)
                b.recovery = !b.recovery;
            if (r > 0 && rng.below(12) == 0) {
                const std::uint32_t i = i0 + r; // dependencies < i
                switch (rng.below(4)) {
                  case 0:
                    b.subarray = other(b.subarray, subarrays);
                    break;
                  case 1:
                    b.dstSubarray = other(b.dstSubarray, subarrays);
                    break;
                  case 2:
                    if (b.depA != kNoBatch && i > 1)
                        b.depA = other(b.depA, i);
                    break;
                  default:
                    if (b.depB != kNoBatch && i > 1)
                        b.depB = other(b.depB, i);
                    break;
                }
            }
            out.push_back(b);
        }
    }
    return out;
}

} // namespace streampim

#endif // STREAMPIM_TESTS_SUPPORT_SCHEDULES_HH_
