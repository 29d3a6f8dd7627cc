/**
 * @file
 * Edge-case tests of the BitVec word kernels (common/simd.hh):
 * cross-word shifts at sizes straddling the word and inline-storage
 * boundaries and the nanowire image length, non-word-aligned
 * copyRange, the top-word zero invariant, and the equality /
 * popcount / addPacked kernels — each against a bit-serial
 * reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/bitvec.hh"
#include "common/rng.hh"

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

/** Bit-serial reference shift (left when @p left, else right). */
BitVec
shiftReference(const BitVec &v, std::size_t n, bool left)
{
    BitVec out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (left) {
            if (i >= n && v.get(i - n))
                out.set(i, true);
        } else {
            if (i + n < v.size() && v.get(i + n))
                out.set(i, true);
        }
    }
    return out;
}

/** Every word's bits beyond size() must be zero. */
void
expectTopInvariant(const BitVec &v)
{
    if (v.size() % BitVec::kWordBits == 0)
        return;
    const std::uint64_t top = v.word(v.wordCount() - 1);
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

TEST_F(SimdKernelsTest, CrossWordShiftsMatchBitSerialReference)
{
    Rng rng(0x51D5);
    for (std::size_t n : kSizes) {
        BitVec v = randomVec(rng, n);
        for (std::size_t s :
             {std::size_t(0), std::size_t(1), std::size_t(7),
              std::size_t(63), std::size_t(64), std::size_t(65),
              n - 1, n, n + 3}) {
            BitVec l = v;
            l <<= s;
            EXPECT_EQ(l, shiftReference(v, s, true))
                << "size " << n << " << " << s;
            expectTopInvariant(l);

            BitVec r = v;
            r >>= s;
            EXPECT_EQ(r, shiftReference(v, s, false))
                << "size " << n << " >> " << s;
            expectTopInvariant(r);
        }
    }
}

TEST_F(SimdKernelsTest, NonWordAlignedCopyRange)
{
    Rng rng(0xC0DE);
    for (std::size_t n : kSizes) {
        const BitVec src = randomVec(rng, n);
        // Misaligned source/destination positions, lengths spanning
        // zero, one and several words.
        for (std::size_t src_pos : {std::size_t(0), std::size_t(1),
                                    std::size_t(13), n / 2}) {
            for (std::size_t dst_pos :
                 {std::size_t(0), std::size_t(3), std::size_t(62),
                  n / 3}) {
                const std::size_t len = std::min(n - src_pos,
                                                 n - dst_pos);
                BitVec dst = randomVec(rng, n);
                const BitVec before = dst;
                dst.copyRange(src, src_pos, dst_pos, len);
                for (std::size_t i = 0; i < n; ++i) {
                    const bool expect =
                        i >= dst_pos && i < dst_pos + len
                            ? src.get(src_pos + (i - dst_pos))
                            : before.get(i);
                    ASSERT_EQ(dst.get(i), expect)
                        << "size " << n << " src_pos " << src_pos
                        << " dst_pos " << dst_pos << " bit " << i;
                }
                expectTopInvariant(dst);
            }
        }
    }
}

TEST_F(SimdKernelsTest, BitwiseOpsAndInvertKeepTopWordZero)
{
    Rng rng(0xBEEF);
    for (std::size_t n : kSizes) {
        BitVec a = randomVec(rng, n);
        const BitVec b = randomVec(rng, n);

        BitVec x = a;
        x &= b;
        BitVec o = a;
        o |= b;
        BitVec e = a;
        e ^= b;
        BitVec inv = a;
        inv.invert();
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(x.get(i), a.get(i) && b.get(i));
            ASSERT_EQ(o.get(i), a.get(i) || b.get(i));
            ASSERT_EQ(e.get(i), a.get(i) != b.get(i));
            ASSERT_EQ(inv.get(i), !a.get(i));
        }
        expectTopInvariant(x);
        expectTopInvariant(o);
        expectTopInvariant(e);
        expectTopInvariant(inv);
    }
}

TEST_F(SimdKernelsTest, EqualityAndPopcount)
{
    Rng rng(0xFACE);
    for (std::size_t n : kSizes) {
        BitVec a = randomVec(rng, n);
        BitVec b = a;
        EXPECT_EQ(a, b);

        std::size_t ones = 0;
        for (std::size_t i = 0; i < n; ++i)
            ones += a.get(i);
        EXPECT_EQ(a.popcount(), ones) << "size " << n;

        // Flip the last bit: inequality must see the top word.
        b.set(n - 1, !b.get(n - 1));
        EXPECT_NE(a, b) << "size " << n;
    }
}

TEST_F(SimdKernelsTest, AddPackedMatchesBitSerialRipple)
{
    Rng rng(0xADD5);
    for (std::size_t n : kSizes) {
        const BitVec a = randomVec(rng, n);
        const BitVec b = randomVec(rng, n);
        for (bool cin : {false, true}) {
            BitVec sum(n);
            const bool carry = BitVec::addPacked(sum, a, b, cin);

            // Bit-serial ripple reference.
            BitVec ref(n);
            bool c = cin;
            for (std::size_t i = 0; i < n; ++i) {
                const bool ai = a.get(i);
                const bool bi = b.get(i);
                ref.set(i, ai != bi ? !c : c);
                c = (ai && bi) || (c && (ai != bi));
            }
            EXPECT_EQ(sum, ref) << "size " << n << " cin " << cin;
            EXPECT_EQ(carry, c) << "size " << n << " cin " << cin;
            expectTopInvariant(sum);
        }
    }
}

TEST_F(SimdKernelsTest, NarrowOperandZeroExtensionInAddPacked)
{
    // A narrow operand zero-extends into a wider sum; the carry out
    // of the sum width is reported, not swallowed by the top word.
    BitVec a = BitVec::fromWord(0xFF, 8);
    BitVec b = BitVec::fromWord(0x1, 8);
    BitVec sum(9);
    EXPECT_FALSE(BitVec::addPacked(sum, a, b));
    EXPECT_EQ(sum.toWord(), 0x100u);

    BitVec sum8(8);
    EXPECT_TRUE(BitVec::addPacked(sum8, a, b));
    EXPECT_EQ(sum8.toWord(), 0x0u);
}

} // namespace
