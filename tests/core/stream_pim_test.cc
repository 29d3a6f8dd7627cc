/**
 * @file
 * Tests for the top-level functional StreamPIM device.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/stream_pim.hh"

namespace streampim
{
namespace
{

TEST(StreamPimSystem, SmallGeometryIsConsistent)
{
    StreamPimSystem sys;
    EXPECT_EQ(sys.capacityBytes(),
              sys.params().totalBytes());
    EXPECT_EQ(sys.params().totalSubarrays(), 4u);
}

TEST(StreamPimSystem, MemoryReadWriteRoundTrip)
{
    StreamPimSystem sys;
    Rng rng(8);
    std::vector<std::uint8_t> data(100);
    for (auto &v : data)
        v = std::uint8_t(rng.below(256));
    sys.write(500, data);
    EXPECT_EQ(sys.read(500, data.size()), data);
}

TEST(StreamPimSystem, WriteAcrossSubarrayBoundary)
{
    StreamPimSystem sys;
    const std::uint64_t per = sys.params().bytesPerSubarray();
    std::vector<std::uint8_t> data(64, 0xCD);
    sys.write(per - 32, data);
    EXPECT_EQ(sys.read(per - 32, 64), data);
}

TEST(StreamPimSystem, LocalDotProductVpc)
{
    StreamPimSystem sys;
    std::vector<std::uint8_t> a = {2, 4, 6};
    std::vector<std::uint8_t> b = {1, 3, 5};
    sys.write(0, a);
    sys.write(256, b);
    sys.submit({VpcKind::Mul, 0, 256, 512, 3});
    auto recs = sys.processQueue();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_FALSE(recs[0].remoteOperands);
    auto out = sys.read(512, 4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t(out[i]) << (8 * i);
    EXPECT_EQ(v, 2u * 1 + 4 * 3 + 6 * 5);
}

TEST(StreamPimSystem, CrossSubarrayOperandIsCollected)
{
    StreamPimSystem sys;
    const std::uint64_t per = sys.params().bytesPerSubarray();
    std::vector<std::uint8_t> a = {1, 1, 1, 1};
    std::vector<std::uint8_t> b = {9, 9, 9, 9};
    sys.write(0, a);      // subarray 0
    sys.write(per, b);    // subarray 1
    sys.submit({VpcKind::Mul, 0, per, 128, 4});
    auto recs = sys.processQueue();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_TRUE(recs[0].remoteOperands);
    // The decoder reported the operand-collection command.
    bool has_read = false;
    for (const auto &cmd : recs[0].commands)
        has_read |= cmd.kind == BankCommandKind::ReadBlock;
    EXPECT_TRUE(has_read);
    auto out = sys.read(128, 4);
    EXPECT_EQ(out[0], 36u);
}

TEST(StreamPimSystem, CrossSubarrayDestination)
{
    StreamPimSystem sys;
    const std::uint64_t per = sys.params().bytesPerSubarray();
    std::vector<std::uint8_t> a = {3, 3};
    std::vector<std::uint8_t> b = {5, 7};
    sys.write(0, a);
    sys.write(64, b);
    sys.submit({VpcKind::Add, 0, 64, 2 * per + 100, 2});
    sys.processQueue();
    auto out = sys.read(2 * per + 100, 2);
    EXPECT_EQ(out[0], 8u);
    EXPECT_EQ(out[1], 10u);
}

TEST(StreamPimSystem, TranVpcAcrossBanks)
{
    StreamPimSystem sys;
    const std::uint64_t bank = sys.params().bytesPerBank();
    std::vector<std::uint8_t> v = {1, 2, 3, 4, 5, 6};
    sys.write(10, v);
    sys.submit({VpcKind::Tran, 10, 0, bank + 77, 6});
    sys.processQueue();
    EXPECT_EQ(sys.read(bank + 77, 6), v);
}

TEST(StreamPimSystem, QueueRespondsPerVpc)
{
    StreamPimSystem sys;
    std::vector<std::uint8_t> a = {1, 2};
    sys.write(0, a);
    sys.write(64, a);
    for (int i = 0; i < 5; ++i)
        sys.submit({VpcKind::Add, 0, 64, 128, 2});
    auto recs = sys.processQueue();
    EXPECT_EQ(recs.size(), 5u);
    EXPECT_EQ(sys.responses(), 5u);
}

TEST(StreamPimSystem, EnergyAggregatesAcrossSubarrays)
{
    StreamPimSystem sys;
    std::vector<std::uint8_t> a = {1, 2, 3};
    sys.write(0, a);
    const std::uint64_t per = sys.params().bytesPerSubarray();
    sys.write(per, a);
    EnergyMeter e = sys.totalEnergy();
    EXPECT_EQ(e.count(EnergyOp::RmWrite), 6u);
}

/** Property: random VPC programs produce host-identical memory. */
TEST(StreamPimSystem, RandomProgramMatchesHostSimulation)
{
    StreamPimSystem sys;
    Rng rng(31337);
    // Shadow memory simulated on the host.
    std::vector<std::uint8_t> shadow(1024);
    for (auto &v : shadow)
        v = std::uint8_t(rng.below(256));
    sys.write(0, shadow);

    for (int step = 0; step < 20; ++step) {
        std::uint32_t n = 1 + unsigned(rng.below(16));
        Addr s1 = rng.below(256);
        Addr s2 = 256 + rng.below(256);
        Addr d = 512 + rng.below(256);
        int kind = int(rng.below(3));
        if (kind == 0) {
            sys.submit({VpcKind::Add, s1, s2, d, n});
            for (std::uint32_t i = 0; i < n; ++i)
                shadow[d + i] =
                    std::uint8_t(shadow[s1 + i] + shadow[s2 + i]);
        } else if (kind == 1) {
            sys.submit({VpcKind::Smul, s1, s2, d, n});
            for (std::uint32_t i = 0; i < n; ++i)
                shadow[d + i] = std::uint8_t(
                    unsigned(shadow[s2]) * shadow[s1 + i]);
        } else {
            sys.submit({VpcKind::Tran, s1, 0, d, n});
            for (std::uint32_t i = 0; i < n; ++i)
                shadow[d + i] = shadow[s1 + i];
        }
        sys.processQueue();
    }
    EXPECT_EQ(sys.read(0, shadow.size()), shadow);
}

TEST(StreamPimSystem, WearSummariesTrackDeposits)
{
    StreamPimSystem sys;
    auto pristine = sys.wearSummaries();
    ASSERT_EQ(pristine.size(), sys.params().totalSubarrays());
    for (const SubarrayWear &w : pristine) {
        EXPECT_EQ(w.deposits, 0u);
        EXPECT_EQ(w.remaps, 0u);
        // Spare pools are plumbed from RmParams even without any
        // injector attached.
        EXPECT_GT(w.sparesTotal, 0u);
        EXPECT_EQ(w.sparesUsed, 0u);
    }

    // Every byte written nucleates its 8 bit tracks once, injector
    // or not — wear is physical, not sampled.
    std::vector<std::uint8_t> data(10, 0xAB);
    sys.write(0, data);
    EXPECT_EQ(sys.wearSummaries()[0].deposits, 10u * 8u);
    EXPECT_EQ(sys.wearSummaries()[1].deposits, 0u);
}

TEST(StreamPimSystem, ResumeKeepsInjectorStreams)
{
    // disable + resume must be invisible to the sampled RNG
    // streams: a run with a fault-free readout window in the middle
    // ends with byte-identical stats to an uninterrupted run.
    FaultConfig fc;
    fc.pWrite0 = 0.3;
    fc.seed = 321;
    std::vector<std::uint8_t> data(32, 0x5C);

    StreamPimSystem paused;
    paused.enableFaultInjection(fc);
    paused.write(0, data);
    FaultStats mid = paused.totalFaultStats();
    EXPECT_GT(mid.depositPulses, 0u);
    paused.disableFaultInjection();
    paused.read(0, data.size()); // fault-free readout window
    paused.resumeFaultInjection();
    paused.write(1024, data);

    StreamPimSystem continuous;
    continuous.enableFaultInjection(fc);
    continuous.write(0, data);
    continuous.write(1024, data);

    FaultStats a = paused.totalFaultStats();
    FaultStats b = continuous.totalFaultStats();
    EXPECT_EQ(a.depositPulses, b.depositPulses);
    EXPECT_EQ(a.writeFaultsInjected, b.writeFaultsInjected);
    EXPECT_EQ(a.redeposits, b.redeposits);
    EXPECT_GT(a.depositPulses, mid.depositPulses);
}

TEST(StreamPimSystemDeath, DoubleEnableFaultInjectionPanics)
{
    StreamPimSystem sys;
    FaultConfig fc;
    fc.pStep = 1e-4;
    sys.enableFaultInjection(fc);
    // A second enable would silently reseed every injector
    // mid-campaign; it must be loud instead.
    EXPECT_DEATH(sys.enableFaultInjection(fc), "already enabled");
    // After an explicit disable, re-enabling (reseeding) is fine.
    sys.disableFaultInjection();
    sys.enableFaultInjection(fc);
    EXPECT_DEATH(sys.enableFaultInjection(fc), "already enabled");
}

TEST(StreamPimSystemDeath, ResumeNeedsAPriorSession)
{
    StreamPimSystem sys;
    EXPECT_DEATH(sys.resumeFaultInjection(), "without a prior");
    FaultConfig fc;
    fc.pStep = 1e-4;
    sys.enableFaultInjection(fc);
    EXPECT_DEATH(sys.resumeFaultInjection(), "nothing to resume");
}

TEST(StreamPimSystemDeath, ResumeAfterResumePanics)
{
    // A full enable/disable/resume cycle re-arms injection; a second
    // resume with injection already live must be loud — callers that
    // double-resume have lost track of the campaign window.
    StreamPimSystem sys;
    FaultConfig fc;
    fc.pStep = 1e-4;
    sys.enableFaultInjection(fc);
    sys.disableFaultInjection();
    sys.resumeFaultInjection();
    EXPECT_DEATH(sys.resumeFaultInjection(), "nothing to resume");
}

TEST(StreamPimSystem, BankHealthAggregatesPerBank)
{
    StreamPimSystem sys;
    auto health = sys.bankHealth();
    ASSERT_EQ(health.size(), sys.params().banks);
    for (const BankHealth &h : health) {
        EXPECT_EQ(h.deposits, 0u);
        EXPECT_EQ(h.trackRemaps, 0u);
        EXPECT_GT(h.sparesTotal, 0u);
        EXPECT_EQ(h.remainingSpares(), h.sparesTotal);
        EXPECT_EQ(h.redeposits, 0u);
        EXPECT_EQ(h.writeFailures, 0u);
    }

    // A write into bank 0 shows up only in bank 0's telemetry.
    std::vector<std::uint8_t> data(10, 0xAB);
    sys.write(0, data);
    health = sys.bankHealth();
    EXPECT_EQ(health[0].bank, 0u);
    EXPECT_EQ(health[0].deposits, 10u * 8u);
    EXPECT_GT(health[0].maxWear, 0u);
    EXPECT_EQ(health[1].deposits, 0u);
    EXPECT_EQ(health[1].maxWear, 0u);
}

TEST(StreamPimSystem, BankHealthCarriesInjectorEnduranceCounters)
{
    StreamPimSystem sys;
    FaultConfig fc;
    fc.pWrite0 = 0.3; // nucleations fail often: redeposits happen
    fc.seed = 321;
    sys.enableFaultInjection(fc);
    std::vector<std::uint8_t> data(64, 0x5C);
    sys.write(0, data); // bank 0
    auto health = sys.bankHealth();
    EXPECT_GT(health[0].redeposits, 0u);
    EXPECT_EQ(health[1].redeposits, 0u);
    // Counters survive a disable (telemetry outlives the session).
    sys.disableFaultInjection();
    auto after = sys.bankHealth();
    EXPECT_EQ(after[0].redeposits, health[0].redeposits);
}

} // namespace
} // namespace streampim
