/**
 * @file
 * Tests for the DDR4 DRAM model used by the host baselines and
 * ELP2IM.
 */

#include <gtest/gtest.h>

#include "baselines/cpu_model.hh"
#include "mem/dram.hh"

namespace streampim
{
namespace
{

TEST(DramParams, PeakBandwidthDdr42400)
{
    DramParams d;
    // 2400 MT/s x 64-bit channel = 19.2 GB/s (Table III's host).
    EXPECT_NEAR(d.peakBandwidth(), 19.2e9, 1e6);
}

TEST(DramParams, LatencyComposition)
{
    DramParams d;
    EXPECT_NEAR(d.rowMissLatencyNs(),
                d.tRpNs + d.tRcdNs + d.tClNs, 1e-12);
}

TEST(HostMemModel, DramFasterThanRmPerAccess)
{
    // A random RM access pays the average shift to align the port
    // group; DRAM pays tRP+tRCD+tCL. The RM's shift tax makes it
    // slower, which is where CPU-DRAM's 1.5x comes from.
    DramParams d;
    RmParams rm;
    auto dram = HostMemModel::forDram(d);
    auto rmm = HostMemModel::forRm(rm);
    EXPECT_GT(dram.effectiveBandwidth, rmm.effectiveBandwidth);
    EXPECT_LT(dram.effectiveBandwidth / rmm.effectiveBandwidth,
              3.0);
}

TEST(HostMemModel, RmHasNoRefresh)
{
    RmParams rm;
    EXPECT_DOUBLE_EQ(HostMemModel::forRm(rm).refreshWatts, 0.0);
    DramParams d;
    EXPECT_GT(HostMemModel::forDram(d).refreshWatts, 0.0);
}

TEST(HostMemModel, EnergiesAreComparable)
{
    // Fig. 18: "the energy consumption of DRAM-based architectures
    // is close to RM-based" — the device-level per-byte energies
    // must be the same order of magnitude.
    DramParams d;
    RmParams rm;
    double ratio = HostMemModel::forRm(rm).accessPjPerByte /
                   HostMemModel::forDram(d).accessPjPerByte;
    EXPECT_GT(ratio, 0.3);
    EXPECT_LT(ratio, 4.0);
}

} // namespace
} // namespace streampim
