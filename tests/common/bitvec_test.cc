/**
 * @file
 * Unit tests for BitVec, the domain-train bit container.
 */

#include <gtest/gtest.h>

#include "common/bitvec.hh"

namespace streampim
{
namespace
{

TEST(BitVec, DefaultIsEmpty)
{
    BitVec v;
    EXPECT_EQ(v.size(), 0u);
    EXPECT_EQ(v.toWord(), 0u);
}

TEST(BitVec, SizedConstructorZeroFills)
{
    BitVec v(9);
    EXPECT_EQ(v.size(), 9u);
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_FALSE(v.get(i));
    EXPECT_EQ(v.toWord(), 0u);
}

TEST(BitVec, InitializerListIsLsbFirst)
{
    BitVec v{1, 0, 1, 1};
    EXPECT_EQ(v.size(), 4u);
    EXPECT_EQ(v.toWord(), 0b1101u);
}

TEST(BitVec, FromWordRoundTrip)
{
    for (std::uint64_t w : {0ull, 1ull, 0xA5ull, 0xFFull, 0xDEADBEEFull}) {
        BitVec v = BitVec::fromWord(w, 32);
        EXPECT_EQ(v.toWord(), w) << "word " << w;
    }
}

TEST(BitVec, FromWordTruncatesHighBits)
{
    BitVec v = BitVec::fromWord(0x1FF, 8);
    EXPECT_EQ(v.toWord(), 0xFFu);
}

TEST(BitVec, SetGet)
{
    BitVec v(8);
    v.set(3, true);
    v.set(7, true);
    EXPECT_TRUE(v.get(3));
    EXPECT_TRUE(v.get(7));
    EXPECT_FALSE(v.get(0));
    EXPECT_EQ(v.toWord(), 0b10001000u);
}

TEST(BitVec, ResizeZeroExtends)
{
    BitVec v = BitVec::fromWord(0b11, 2);
    v.resize(6);
    EXPECT_EQ(v.size(), 6u);
    EXPECT_EQ(v.toWord(), 0b11u);
}

TEST(BitVec, ResizeTruncates)
{
    BitVec v = BitVec::fromWord(0b1111, 4);
    v.resize(2);
    EXPECT_EQ(v.toWord(), 0b11u);
}

/** Property: fromWord/toWord round-trips for every 8-bit value. */
class BitVecAllBytes : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVecAllBytes, RoundTrip)
{
    unsigned w = GetParam();
    EXPECT_EQ(BitVec::fromWord(w, 8).toWord(), w);
}

INSTANTIATE_TEST_SUITE_P(AllByteValues, BitVecAllBytes,
                         ::testing::Range(0u, 256u, 17u));

} // namespace
} // namespace streampim
