/**
 * @file
 * The word kernels behind the packed BitVec store.
 *
 * BitVec clears and writes bit spans through the free functions
 * here instead of open-coded loops; copyBits is on the mat word
 * path (BitVec::setBits -> Nanowire::pokeDomains). Each is a
 * portable loop over contiguous word spans with no aliasing
 * surprises, written so the compiler's auto-vectorizer can widen it
 * for whatever target the build selects (e.g. -mavx2). Results are
 * therefore independent of the build flags: every target computes
 * the same words (DESIGN.md §9).
 */

#ifndef STREAMPIM_COMMON_SIMD_HH_
#define STREAMPIM_COMMON_SIMD_HH_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace streampim::simd
{

/**
 * Name of the word-kernel implementation, recorded in every report's
 * perf section. There is one implementation, so this is constant.
 */
inline const char *
backendName()
{
    return "scalar";
}

/** d[i] = 0 over @p n words. */
inline void
zeroWords(std::uint64_t *d, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        d[i] = 0;
}

/** d[i] = s[i] over @p n words (non-overlapping). */
inline void
copyWords(std::uint64_t *d, const std::uint64_t *s, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        d[i] = s[i];
}

/**
 * Copy @p len bits from @p src starting at bit @p src_pos into
 * @p dst starting at bit @p dst_pos. Word-aligned spans move whole
 * words through copyWords; unaligned
 * spans fall back to masked per-word chunks. Regions must not
 * overlap within one buffer.
 */
inline void
copyBits(std::uint64_t *dst, std::size_t dst_pos,
         const std::uint64_t *src, std::size_t src_pos,
         std::size_t len)
{
    if ((src_pos | dst_pos) % 64 == 0) {
        // Word-aligned fast case: bulk words + one masked tail.
        const std::size_t whole = len / 64;
        copyWords(dst + dst_pos / 64, src + src_pos / 64, whole);
        const std::size_t tail = len % 64;
        if (tail != 0) {
            const std::uint64_t mask =
                (std::uint64_t(1) << tail) - 1;
            std::uint64_t &dw = dst[dst_pos / 64 + whole];
            dw = (dw & ~mask) | (src[src_pos / 64 + whole] & mask);
        }
        return;
    }
    std::size_t done = 0;
    while (done < len) {
        const std::size_t sp = src_pos + done;
        const std::size_t dp = dst_pos + done;
        // Bits available in the current source / dest word.
        const std::size_t chunk = std::min(
            {len - done, std::size_t(64) - sp % 64,
             std::size_t(64) - dp % 64});
        const std::uint64_t mask =
            chunk >= 64 ? ~std::uint64_t(0)
                        : (std::uint64_t(1) << chunk) - 1;
        const std::uint64_t bits = (src[sp / 64] >> (sp % 64)) & mask;
        std::uint64_t &dw = dst[dp / 64];
        dw = (dw & ~(mask << (dp % 64))) | (bits << (dp % 64));
        done += chunk;
    }
}

} // namespace streampim::simd

#endif // STREAMPIM_COMMON_SIMD_HH_
