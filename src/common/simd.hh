/**
 * @file
 * The word kernels behind the packed functional model.
 *
 * Every word-parallel kernel of the datapath — the BitVec bitwise
 * ops, shifts, range copies, packed addition, popcount/equality —
 * routes through the free functions here instead of open-coded
 * loops. Each is a portable loop over contiguous word spans with no
 * aliasing surprises, written so the compiler's auto-vectorizer can
 * widen it for whatever target the build selects (e.g. -mavx2).
 * Results are therefore independent of the build flags: every
 * target computes the same words (DESIGN.md §9).
 */

#ifndef STREAMPIM_COMMON_SIMD_HH_
#define STREAMPIM_COMMON_SIMD_HH_

#include <algorithm>
#include <bit>
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

/** d[i] &= s[i] over @p n words. */
inline void
andWords(std::uint64_t *d, const std::uint64_t *s, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        d[i] &= s[i];
}

/** d[i] |= s[i] over @p n words. */
inline void
orWords(std::uint64_t *d, const std::uint64_t *s, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        d[i] |= s[i];
}

/** d[i] ^= s[i] over @p n words. */
inline void
xorWords(std::uint64_t *d, const std::uint64_t *s, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        d[i] ^= s[i];
}

/** d[i] = ~d[i] over @p n words (caller re-masks the top word). */
inline void
notWords(std::uint64_t *d, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        d[i] = ~d[i];
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

/** a[i] == b[i] over @p n words. */
inline bool
equalWords(const std::uint64_t *a, const std::uint64_t *b,
           std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

/** Total popcount over @p n words. */
inline std::size_t
popcountWords(const std::uint64_t *w, std::size_t n)
{
    std::size_t c = 0;
    for (std::size_t i = 0; i < n; ++i)
        c += std::size_t(std::popcount(w[i]));
    return c;
}

/**
 * In-place left funnel shift of an @p n-word little-endian image by
 * word_shift*64 + bit_shift positions (bit_shift < 64); vacated low
 * words become zero. The caller re-masks the top word.
 */
inline void
shlWords(std::uint64_t *w, std::size_t n, std::size_t word_shift,
         unsigned bit_shift)
{
    for (std::size_t i = n; i-- > 0;) {
        std::uint64_t v = 0;
        if (i >= word_shift) {
            v = w[i - word_shift] << bit_shift;
            if (bit_shift > 0 && i > word_shift)
                v |= w[i - word_shift - 1] >> (64 - bit_shift);
        }
        w[i] = v;
    }
}

/**
 * In-place right funnel shift of an @p n-word image by
 * word_shift*64 + bit_shift positions (bit_shift < 64); vacated
 * high words become zero.
 */
inline void
shrWords(std::uint64_t *w, std::size_t n, std::size_t word_shift,
         unsigned bit_shift)
{
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t v = 0;
        if (i + word_shift < n) {
            v = w[i + word_shift] >> bit_shift;
            if (bit_shift > 0 && i + word_shift + 1 < n)
                v |= w[i + word_shift + 1] << (64 - bit_shift);
        }
        w[i] = v;
    }
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

/**
 * Packed multi-word addition sum = a + b + cin with zero-extension
 * of narrower operands; returns the carry out of word n_sum-1. The
 * carry chain is inherently serial, so this never vectorizes —
 * kept here so all datapath word kernels share one home.
 */
inline bool
addWords(std::uint64_t *sum, std::size_t n_sum,
         const std::uint64_t *a, std::size_t n_a,
         const std::uint64_t *b, std::size_t n_b, bool cin)
{
    bool carry = cin;
    for (std::size_t w = 0; w < n_sum; ++w) {
        const std::uint64_t aw = w < n_a ? a[w] : 0;
        const std::uint64_t bw = w < n_b ? b[w] : 0;
        const std::uint64_t t = aw + bw;
        const std::uint64_t s = t + (carry ? 1 : 0);
        carry = (t < aw) || (carry && s == 0);
        sum[w] = s;
    }
    return carry;
}

} // namespace streampim::simd

#endif // STREAMPIM_COMMON_SIMD_HH_
