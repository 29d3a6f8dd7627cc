/**
 * @file
 * Tests for VPC types and the asynchronous queue (Table II,
 * Sec. IV-B).
 */

#include <gtest/gtest.h>

#include "vpc/vpc.hh"

namespace streampim
{
namespace
{

TEST(Vpc, MnemonicsMatchTableII)
{
    EXPECT_STREQ(vpcKindName(VpcKind::Mul), "MUL");
    EXPECT_STREQ(vpcKindName(VpcKind::Smul), "SMUL");
    EXPECT_STREQ(vpcKindName(VpcKind::Add), "ADD");
    EXPECT_STREQ(vpcKindName(VpcKind::Tran), "TRAN");
}

TEST(Vpc, PimPredicate)
{
    EXPECT_TRUE(isPimVpc(VpcKind::Mul));
    EXPECT_TRUE(isPimVpc(VpcKind::Smul));
    EXPECT_TRUE(isPimVpc(VpcKind::Add));
    EXPECT_FALSE(isPimVpc(VpcKind::Tran));
}

TEST(Vpc, ToStringFollowsTableIIShape)
{
    Vpc v{VpcKind::Mul, 16, 32, 64, 100};
    EXPECT_EQ(v.toString(),
              "MUL src1=16 src2=32 des=64 size=100");
    Vpc t{VpcKind::Tran, 1, 0, 2, 8};
    // TRAN has no second source operand (Table II).
    EXPECT_EQ(t.toString(), "TRAN src1=1 des=2 size=8");
}

TEST(VpcQueue, StartsEmpty)
{
    VpcQueue q(4);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.full());
    EXPECT_EQ(q.capacity(), 4u);
}

TEST(VpcQueue, PushPopFifo)
{
    VpcQueue q(4);
    q.push({VpcKind::Mul, 1, 2, 3, 4});
    q.push({VpcKind::Add, 5, 6, 7, 8});
    EXPECT_EQ(q.depth(), 2u);
    EXPECT_EQ(q.pop().kind, VpcKind::Mul);
    EXPECT_EQ(q.pop().kind, VpcKind::Add);
    EXPECT_TRUE(q.empty());
}

TEST(VpcQueue, RefusesWhenFull)
{
    VpcQueue q(2);
    EXPECT_TRUE(q.push({VpcKind::Mul, 0, 0, 0, 1}));
    EXPECT_TRUE(q.push({VpcKind::Mul, 0, 0, 0, 1}));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push({VpcKind::Mul, 0, 0, 0, 1}));
    EXPECT_EQ(q.depth(), 2u);
}

TEST(VpcQueue, AsynchronousSendResponseBookkeeping)
{
    VpcQueue q(8);
    q.push({VpcKind::Mul, 0, 0, 0, 1});
    q.push({VpcKind::Add, 0, 0, 0, 1});
    EXPECT_EQ(q.responses(), 0u);
    q.pop();
    q.respond();
    EXPECT_EQ(q.responses(), 1u);
    q.pop();
    q.respond();
    EXPECT_EQ(q.responses(), 2u);
    EXPECT_TRUE(q.empty());
}

TEST(VpcQueueDeath, PopFromEmptyPanics)
{
    VpcQueue q(2);
    EXPECT_DEATH(q.pop(), "empty");
}

} // namespace
} // namespace streampim
