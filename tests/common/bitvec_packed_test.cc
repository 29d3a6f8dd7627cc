/**
 * @file
 * Tests for the packed-word BitVec store: wide (>64-bit) vectors,
 * the word-level accessors, the span accessors setBits()/bits(),
 * clear() and resize() — including the invariant that bits above
 * size() in the top word stay zero through every operation.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/bitvec.hh"
#include "common/rng.hh"

namespace streampim
{
namespace
{

/** Set every bit of @p v through 64-bit setBits() spans. */
void
fillOnes(BitVec &v)
{
    for (std::size_t pos = 0; pos < v.size(); pos += 64) {
        const unsigned len =
            unsigned(std::min<std::size_t>(64, v.size() - pos));
        v.setBits(pos, len, ~0ull);
    }
}

TEST(BitVecPacked, WordCountAndAccess)
{
    // 130 bits span three backing words.
    BitVec v(130);
    v.set(0, true);
    v.set(64, true);
    v.set(129, true);
    EXPECT_EQ(v.word(0), 1ull);
    EXPECT_EQ(v.word(1), 1ull);
    EXPECT_EQ(v.word(2), 2ull);
}

TEST(BitVecPacked, SetBitsUnalignedSpans)
{
    // Spans that start mid-word and straddle a word boundary, moved
    // through setBits() and read back through bits().
    Rng rng(9);
    BitVec src(100);
    for (unsigned i = 0; i < 100; ++i)
        src.set(i, rng.next() & 1);
    BitVec dst(200);
    for (unsigned done = 0; done < 90; done += 45)
        dst.setBits(71 + done, 45, src.bits(5 + done, 45));
    for (unsigned i = 0; i < 90; ++i)
        EXPECT_EQ(dst.get(71 + i), src.get(5 + i)) << "bit " << i;
    // Bits outside the destination window stay clear.
    for (unsigned i = 0; i < 71; ++i)
        EXPECT_FALSE(dst.get(i));
    for (unsigned i = 161; i < 200; ++i)
        EXPECT_FALSE(dst.get(i));
}

TEST(BitVecPacked, ClearZeroesEverything)
{
    BitVec v(100);
    fillOnes(v);
    v.clear();
    EXPECT_EQ(v.size(), 100u);
    EXPECT_EQ(v.word(0), 0ull);
    EXPECT_EQ(v.word(1), 0ull);
}

TEST(BitVecPacked, ResizeAcrossWordBoundaryKeepsInvariant)
{
    BitVec v(70);
    fillOnes(v);
    EXPECT_EQ(v.word(1), 0x3Full);
    v.resize(65);
    EXPECT_EQ(v.word(0), ~0ull);
    EXPECT_EQ(v.word(1), 1ull);
    v.resize(130);
    EXPECT_EQ(v.word(1), 1ull);
    EXPECT_EQ(v.word(2), 0ull);
    v.resize(3);
    EXPECT_EQ(v.toWord(), 0b111ull);
}

} // namespace
} // namespace streampim
