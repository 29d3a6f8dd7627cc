/**
 * @file
 * Tests for VPC decoding and distribution (Fig. 14).
 */

#include <gtest/gtest.h>

#include "vpc/decoder.hh"

namespace streampim
{
namespace
{

struct Fixture
{
    RmParams rm;
    AddressMap map{rm};
    VpcDecoder decoder{map};

    std::vector<BankCommand>
    decode(const Vpc &vpc) const
    {
        std::vector<BankCommand> cmds;
        decoder.decodeInto(vpc, cmds);
        return cmds;
    }
};

TEST(VpcDecoder, SingleSubarrayVpcIsOneCommand)
{
    Fixture f;
    // Everything inside subarray 0 of bank 0.
    Vpc vpc{VpcKind::Mul, 0, 4096, 8192, 100};
    auto cmds = f.decode(vpc);
    ASSERT_EQ(cmds.size(), 1u);
    EXPECT_EQ(cmds[0].kind, BankCommandKind::ExecuteInBank);
    EXPECT_EQ(cmds[0].bank, 0u);
    EXPECT_EQ(cmds[0].op, VpcKind::Mul);
}

TEST(VpcDecoder, RemoteOperandAddsReadCommand)
{
    Fixture f;
    Vpc vpc{VpcKind::Add, 0, f.rm.bytesPerBank() /* bank 1 */, 64,
            32};
    auto cmds = f.decode(vpc);
    ASSERT_EQ(cmds.size(), 2u);
    EXPECT_EQ(cmds[0].kind, BankCommandKind::ReadBlock);
    EXPECT_EQ(cmds[0].bank, 1u);
    EXPECT_EQ(cmds[1].kind, BankCommandKind::ExecuteInBank);
    EXPECT_EQ(cmds[1].bank, 0u);
}

TEST(VpcDecoder, RemoteDestinationAddsWriteCommand)
{
    Fixture f;
    Vpc vpc{VpcKind::Mul, 0, 64, 2 * f.rm.bytesPerBank(), 16};
    auto cmds = f.decode(vpc);
    ASSERT_EQ(cmds.size(), 2u);
    EXPECT_EQ(cmds[0].kind, BankCommandKind::ExecuteInBank);
    EXPECT_EQ(cmds[1].kind, BankCommandKind::WriteBlock);
    EXPECT_EQ(cmds[1].bank, 2u);
    // A dot product stores one 32-bit accumulator.
    EXPECT_EQ(cmds[1].bytes, 4u);
}

TEST(VpcDecoder, NonDotResultsAreFullVectors)
{
    Fixture f;
    Vpc vpc{VpcKind::Add, 0, 64, 2 * f.rm.bytesPerBank(), 16};
    auto cmds = f.decode(vpc);
    EXPECT_EQ(cmds.back().bytes, 16u);
}

TEST(VpcDecoder, TranIsReadPlusWrite)
{
    Fixture f;
    Vpc vpc{VpcKind::Tran, 0, 0, f.rm.bytesPerBank(), 128};
    auto cmds = f.decode(vpc);
    ASSERT_EQ(cmds.size(), 2u);
    EXPECT_EQ(cmds[0].kind, BankCommandKind::ReadBlock);
    EXPECT_EQ(cmds[1].kind, BankCommandKind::WriteBlock);
    EXPECT_EQ(cmds[1].bank, 1u);
}

TEST(VpcDecoder, ExecutingBankFollowsSrc1)
{
    Fixture f;
    Vpc vpc{VpcKind::Mul, 5 * f.rm.bytesPerBank(), 0, 0, 8};
    auto cmds = f.decode(vpc);
    ASSERT_EQ(cmds.size(), 3u);
    EXPECT_EQ(cmds[1].kind, BankCommandKind::ExecuteInBank);
    EXPECT_EQ(cmds[1].bank, 5u);
}

TEST(VpcDecoderDeath, ZeroSizePanics)
{
    Fixture f;
    Vpc vpc{VpcKind::Mul, 0, 0, 0, 0};
    EXPECT_DEATH(f.decode(vpc), "zero-size");
}

} // namespace
} // namespace streampim
