/**
 * @file
 * Edge-case tests of the BitVec word kernels (common/simd.hh):
 * non-word-aligned copyBits range copies, and the setBits()/bits()
 * span accessors built on it (the mat word path), at sizes
 * straddling the word and inline-storage boundaries and the
 * nanowire image length — each against a bit-serial reference and
 * with the top-word zero invariant checked.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "common/rng.hh"
#include "common/simd.hh"

using namespace streampim;

namespace
{

/** Deterministic pseudo-random vector of @p n bits. */
BitVec
randomVec(Rng &rng, std::size_t n)
{
    BitVec v(n);
    for (std::size_t i = 0; i < n; ++i)
        v.set(i, rng.below(2) != 0);
    return v;
}

/** Bit @p i of a little-endian word image. */
bool
bitOf(const std::vector<std::uint64_t> &w, std::size_t i)
{
    return (w[i / 64] >> (i % 64)) & 1u;
}

/** Every word's bits beyond size() must be zero. */
void
expectTopInvariant(const BitVec &v)
{
    if (v.size() % BitVec::kWordBits == 0)
        return;
    const std::uint64_t top = v.word(v.size() / BitVec::kWordBits);
    const std::uint64_t mask =
        (std::uint64_t(1) << (v.size() % BitVec::kWordBits)) - 1;
    EXPECT_EQ(top & ~mask, 0u) << "top-word invariant violated at "
                               << v.size() << " bits";
}

class SimdKernelsTest : public testing::Test
{
  protected:
    // The sizes straddle the word boundary (63/64/65), the
    // inline-storage boundary (127/128/129, kInlineWords == 2), a
    // few-word heap vector (255/256/257) and the 4096-domain
    // nanowire image (4095/4096/4097), whose 64-word loops run the
    // compiler's vectorized loop bodies.
    static constexpr std::size_t kSizes[] = {
        63, 64, 65, 127, 128, 129, 255, 256, 257, 4095, 4096, 4097};
};

TEST_F(SimdKernelsTest, NonWordAlignedCopyRange)
{
    Rng rng(0xC0DE);
    for (std::size_t n : kSizes) {
        const std::size_t nw = (n + 63) / 64;
        std::vector<std::uint64_t> src(nw);
        for (auto &w : src)
            w = rng.next();
        // Misaligned source/destination positions, lengths spanning
        // zero, one and several words.
        for (std::size_t src_pos : {std::size_t(0), std::size_t(1),
                                    std::size_t(13), n / 2}) {
            for (std::size_t dst_pos :
                 {std::size_t(0), std::size_t(3), std::size_t(62),
                  n / 3}) {
                const std::size_t len = std::min(n - src_pos,
                                                 n - dst_pos);
                std::vector<std::uint64_t> dst(nw);
                for (auto &w : dst)
                    w = rng.next();
                const auto before = dst;
                simd::copyBits(dst.data(), dst_pos, src.data(),
                               src_pos, len);
                // Every bit of the image, including the padding
                // above n, is either copied or left alone.
                for (std::size_t i = 0; i < nw * 64; ++i) {
                    const bool expect =
                        i >= dst_pos && i < dst_pos + len
                            ? bitOf(src, src_pos + (i - dst_pos))
                            : bitOf(before, i);
                    ASSERT_EQ(bitOf(dst, i), expect)
                        << "size " << n << " src_pos " << src_pos
                        << " dst_pos " << dst_pos << " bit " << i;
                }
            }
        }
    }
}

TEST_F(SimdKernelsTest, SetBitsAndBitsAtWordBoundaries)
{
    Rng rng(0x5E7B);
    for (std::size_t n : kSizes) {
        // Spans starting on, just before and just after a word
        // boundary, and spans ending at or straddling the top word.
        for (std::size_t pos :
             {std::size_t(0), std::size_t(1), std::size_t(31),
              std::size_t(62), std::size_t(63), std::size_t(64),
              std::size_t(65), n - 64, n - 63, n - 33, n - 1}) {
            for (unsigned len : {1u, 2u, 31u, 63u, 64u}) {
                // n - 64 wraps around for n < 64: skip it too.
                if (pos >= n || len > n - pos)
                    continue;
                BitVec v = randomVec(rng, n);
                const BitVec before = v;
                const std::uint64_t value = rng.next();
                const std::uint64_t mask =
                    len == 64 ? ~0ull : (1ull << len) - 1;
                v.setBits(pos, len, value);
                ASSERT_EQ(v.bits(pos, len), value & mask)
                    << "size " << n << " pos " << pos << " len "
                    << len;
                for (std::size_t i = 0; i < n; ++i) {
                    const bool expect =
                        i >= pos && i < pos + len
                            ? ((value >> (i - pos)) & 1u) != 0
                            : before.get(i);
                    ASSERT_EQ(v.get(i), expect)
                        << "size " << n << " pos " << pos << " len "
                        << len << " bit " << i;
                }
                expectTopInvariant(v);
            }
        }
    }
}

} // namespace
