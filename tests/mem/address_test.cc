/**
 * @file
 * Tests for the RM address map.
 */

#include <gtest/gtest.h>

#include "mem/address.hh"

namespace streampim
{
namespace
{

TEST(AddressMap, FirstByte)
{
    RmParams rm;
    AddressMap map(rm);
    RmLocation loc = map.decode(0);
    EXPECT_EQ(loc.bank, 0u);
    EXPECT_EQ(loc.subarray, 0u);
    EXPECT_EQ(loc.mat, 0u);
    EXPECT_EQ(loc.trackGroup, 0u);
    EXPECT_EQ(loc.domain, 0u);
}

TEST(AddressMap, RowMajorAcrossTrackGroups)
{
    RmParams rm;
    AddressMap map(rm);
    // Consecutive bytes sit side by side across track groups at the
    // same domain position.
    RmLocation b0 = map.decode(0);
    RmLocation b1 = map.decode(1);
    EXPECT_EQ(b1.domain, b0.domain);
    EXPECT_EQ(b1.trackGroup, b0.trackGroup + 8);
    // The next row starts after bytesPerRow bytes.
    RmLocation row1 = map.decode(map.bytesPerRow());
    EXPECT_EQ(row1.domain, 1u);
    EXPECT_EQ(row1.trackGroup, 0u);
}

TEST(AddressMap, BankBoundaries)
{
    RmParams rm;
    AddressMap map(rm);
    Addr last_of_bank0 = rm.bytesPerBank() - 1;
    EXPECT_EQ(map.decode(last_of_bank0).bank, 0u);
    EXPECT_EQ(map.decode(last_of_bank0 + 1).bank, 1u);
}

TEST(AddressMapDeath, BeyondCapacityPanics)
{
    RmParams rm;
    AddressMap map(rm);
    EXPECT_DEATH(map.decode(rm.totalBytes()), "capacity");
}

TEST(RmParams, TableIIIDerivedQuantities)
{
    RmParams rm;
    // 32 banks x 64 subarrays x 16 mats x 256 KiB = 8 GiB.
    EXPECT_EQ(rm.totalBytes(), 8ull << 30);
    EXPECT_EQ(rm.pimSubarrays(), 512u);
    EXPECT_EQ(rm.totalSubarrays(), 2048u);
    // 256 KiB x 8 bits / 512 tracks = 4096 domains per track.
    EXPECT_EQ(rm.domainsPerTrack(), 4096u);
    // A PIM subarray is 1/2048 of total capacity (Sec. IV-C).
    EXPECT_EQ(rm.totalBytes() / rm.bytesPerSubarray(), 2048u);
}

TEST(RmParams, TimingConversions)
{
    RmParams rm;
    EXPECT_EQ(rm.readTicks(), 3910u);
    EXPECT_EQ(rm.writeTicks(), 10270u);
    EXPECT_EQ(rm.shiftTicks(1), 2130u);
    EXPECT_EQ(rm.shiftTicks(10), 21300u);
}

TEST(RmParamsDeath, ValidationCatchesBadConfigs)
{
    RmParams rm;
    rm.pimBanks = 64;
    EXPECT_DEATH(rm.validate(), "pimBanks");

    RmParams rm2;
    rm2.busSegmentSize = 1000; // does not divide 4096
    EXPECT_DEATH(rm2.validate(), "segment");

    RmParams rm3;
    rm3.duplicators = 0;
    EXPECT_DEATH(rm3.validate(), "duplicator");
}

} // namespace
} // namespace streampim
