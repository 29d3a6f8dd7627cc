/**
 * @file
 * Tests for the multi-device sharding layer: ShardedSystem's
 * two-level drain, the row-block matmul/element-wise runners, and
 * the sharded campaign routing. The headline invariants:
 *
 *  - bit-exactness: sharded outputs equal the host reference and
 *    the unsharded single-device run at EVERY fleet size, including
 *    the edge shapes (n not divisible by devices, n < devices,
 *    n == 1, blocks that still re-tile within one device);
 *  - schedule independence: records, statistics and memory images
 *    are byte-identical at any (deviceJobs x engineJobs);
 *  - fleet-size independence: device d's fault/endurance trajectory
 *    depends only on (seed, d), so growing the fleet never perturbs
 *    an existing device, and device 0 IS the unsharded system.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/rng.hh"
#include "core/fault_campaign.hh"
#include "core/sharded_system.hh"

namespace streampim
{
namespace
{

std::vector<std::uint8_t>
patternMatrix(std::size_t bytes, unsigned salt)
{
    std::vector<std::uint8_t> m(bytes);
    for (std::size_t i = 0; i < bytes; ++i)
        m[i] = std::uint8_t(i * 31 + salt);
    return m;
}

std::vector<std::uint8_t>
shardedProduct(unsigned devices, std::uint32_t n, std::uint32_t k,
               std::uint32_t m, ShardedMatmulStats *stats = nullptr)
{
    const auto a = patternMatrix(std::uint64_t(n) * k, 7);
    const auto b = patternMatrix(std::uint64_t(k) * m, 3);
    ShardedSystem sys(smallFunctionalParams(), devices);
    return runShardedMatmul(sys, a, b, n, k, m,
                            ShardedMatmulConfig{}, stats);
}

void
expectCampaignEq(const FaultCampaignResult &x,
                 const FaultCampaignResult &y, const char *what)
{
    EXPECT_EQ(x.clean, y.clean) << what;
    EXPECT_EQ(x.corrected, y.corrected) << what;
    EXPECT_EQ(x.retried, y.retried) << what;
    EXPECT_EQ(x.failed, y.failed) << what;
    EXPECT_EQ(x.mismatchedRecovered, y.mismatchedRecovered) << what;
    EXPECT_EQ(x.failedButIntact, y.failedButIntact) << what;
    EXPECT_EQ(x.stats.pulses, y.stats.pulses) << what;
    EXPECT_EQ(x.stats.faultsInjected, y.stats.faultsInjected)
        << what;
    EXPECT_EQ(x.stats.depositPulses, y.stats.depositPulses) << what;
    EXPECT_EQ(x.stats.writeFaultsInjected,
              y.stats.writeFaultsInjected)
        << what;
    ASSERT_EQ(x.perVpc.size(), y.perVpc.size()) << what;
    for (std::size_t i = 0; i < x.perVpc.size(); ++i) {
        EXPECT_EQ(x.perVpc[i].status, y.perVpc[i].status)
            << what << " vpc " << i;
        EXPECT_EQ(x.perVpc[i].bitExact, y.perVpc[i].bitExact)
            << what << " vpc " << i;
    }
}

/** Every StatusTally field of a fleet is the per-device sum. */
void
expectFleetSums(const ShardedFaultCampaignResult &fleet)
{
    unsigned clean = 0, corrected = 0, retried = 0, failed = 0;
    unsigned recovered = 0, unrecoverable = 0, mismatched = 0;
    unsigned intact = 0;
    std::uint64_t pulses = 0, deposits = 0;
    for (const auto &dev : fleet.perDevice) {
        clean += dev.clean;
        corrected += dev.corrected;
        retried += dev.retried;
        failed += dev.failed;
        recovered += dev.recovered;
        unrecoverable += dev.unrecoverable;
        mismatched += dev.mismatchedRecovered;
        intact += dev.failedButIntact;
        pulses += dev.stats.pulses;
        deposits += dev.stats.depositPulses;
    }
    EXPECT_EQ(fleet.clean, clean);
    EXPECT_EQ(fleet.corrected, corrected);
    EXPECT_EQ(fleet.retried, retried);
    EXPECT_EQ(fleet.failed, failed);
    EXPECT_EQ(fleet.recovered, recovered);
    EXPECT_EQ(fleet.unrecoverable, unrecoverable);
    EXPECT_EQ(fleet.mismatchedRecovered, mismatched);
    EXPECT_EQ(fleet.failedButIntact, intact);
    EXPECT_EQ(fleet.stats.pulses, pulses);
    EXPECT_EQ(fleet.stats.depositPulses, deposits);
}

/** Shift+write fault knobs that actually fire on the campaign. */
FaultCampaignConfig
faultyBase()
{
    FaultCampaignConfig base;
    base.pStep = 2e-4;
    base.pWrite0 = 1e-3;
    base.writeEndurance = 400.0;
    base.weibullShape = 3.0;
    base.seed = 0x5eed5;
    return base;
}

} // namespace

TEST(ShardedSystem, DeviceSeedIsPureAndDecorrelated)
{
    const std::uint64_t seed = 0xfeedULL;
    // Device 0 keeps the master seed: a 1-device fleet IS the
    // single-device system.
    EXPECT_EQ(ShardedSystem::deviceSeed(seed, 0), seed);
    // Higher devices decorrelate, distinctly, and purely as a
    // function of (seed, device) — never of any fleet size.
    for (unsigned d = 1; d < 16; ++d) {
        EXPECT_NE(ShardedSystem::deviceSeed(seed, d), seed)
            << "d=" << d;
        for (unsigned e = d + 1; e < 16; ++e)
            EXPECT_NE(ShardedSystem::deviceSeed(seed, d),
                      ShardedSystem::deviceSeed(seed, e))
                << d << " vs " << e;
    }
}

TEST(ShardedSystem, MatmulBitExactAtEveryFleetSize)
{
    // Odd shapes: remainder blocks, n < devices, a single row.
    struct Shape
    {
        std::uint32_t n, k, m;
    };
    const Shape shapes[] = {
        {33, 17, 9}, // remainder at every fleet size
        {3, 8, 2},   // n < devices for the larger fleets
        {1, 5, 4},   // single row: one active device
        {10, 6, 5},
    };
    for (const Shape &s : shapes) {
        const auto a = patternMatrix(std::uint64_t(s.n) * s.k, 7);
        const auto b = patternMatrix(std::uint64_t(s.k) * s.m, 3);
        const auto want =
            hostMatmulReference(a, b, s.n, s.k, s.m);
        for (unsigned devices : {1u, 2u, 4u, 8u}) {
            SCOPED_TRACE(testing::Message()
                         << s.n << "x" << s.k << "x" << s.m << " @"
                         << devices);
            ShardedMatmulStats st;
            EXPECT_EQ(
                shardedProduct(devices, s.n, s.k, s.m, &st), want);
            // Ceil-division may leave more than devices - n shards
            // idle (e.g. 33 rows over 8 devices: 5-row blocks fill
            // 7 devices), but never uses more than min(devices, n).
            EXPECT_GE(st.activeDevices, 1u);
            EXPECT_LE(st.activeDevices, std::min(devices, s.n));
            EXPECT_EQ(st.mergedBytes,
                      std::uint64_t(s.n) * s.m);
        }
    }
}

TEST(ShardedSystem, MatmulRetilesWithinEachShard)
{
    // 80 rows over 2 devices: each 40-row block still exceeds the
    // small geometry's 32-element tile edge, so every device
    // re-tiles internally — sharding on top, tiling below.
    const std::uint32_t n = 80, k = 64, m = 48;
    const auto a = patternMatrix(std::uint64_t(n) * k, 7);
    const auto b = patternMatrix(std::uint64_t(k) * m, 3);

    ShardedSystem sys(smallFunctionalParams(), 2);
    ShardedMatmulStats st;
    const auto c = runShardedMatmul(sys, a, b, n, k, m,
                                    ShardedMatmulConfig{}, &st);
    EXPECT_EQ(c, hostMatmulReference(a, b, n, k, m));
    EXPECT_EQ(st.activeDevices, 2u);
    for (unsigned d = 0; d < 2; ++d)
        EXPECT_GT(st.perDevice[d].tileTasks, 1u)
            << "device " << d << " did not tile internally";
    EXPECT_EQ(st.tileTasks, st.perDevice[0].tileTasks +
                                st.perDevice[1].tileTasks);
}

TEST(ShardedSystem, VectorAddBitExactAtEveryFleetSize)
{
    const std::size_t elements = 1000;
    std::vector<std::uint8_t> a(elements), b(elements);
    for (std::size_t i = 0; i < elements; ++i) {
        a[i] = std::uint8_t(i * 13 + 5);
        b[i] = std::uint8_t(i * 7 + 11);
    }
    std::vector<std::uint8_t> want(elements);
    for (std::size_t i = 0; i < elements; ++i)
        want[i] = std::uint8_t(a[i] + b[i]);

    for (unsigned devices : {1u, 3u, 8u}) {
        SCOPED_TRACE(testing::Message() << "devices=" << devices);
        ShardedSystem sys(smallFunctionalParams(), devices);
        ShardedElementwiseStats st;
        EXPECT_EQ(runShardedVectorAdd(sys, a, b, 0, 0, &st), want);
        EXPECT_EQ(st.activeDevices, devices);
        EXPECT_EQ(st.mergedBytes, elements);
    }

    // Fewer elements than devices: the tail idles, result intact.
    const std::vector<std::uint8_t> tiny_a = {1, 2, 3};
    const std::vector<std::uint8_t> tiny_b = {10, 20, 30};
    ShardedSystem sys(smallFunctionalParams(), 8);
    ShardedElementwiseStats st;
    const auto c = runShardedVectorAdd(sys, tiny_a, tiny_b, 0, 0,
                                       &st);
    EXPECT_EQ(c, (std::vector<std::uint8_t>{11, 22, 33}));
    EXPECT_EQ(st.activeDevices, 3u);
}

TEST(ShardedSystem, ProcessAllByteIdenticalAcrossSplits)
{
    // One faulty fleet per split; records, statistics, health and
    // the full memory image must be byte-identical whatever the
    // (deviceJobs x engineJobs) schedule.
    struct Split
    {
        unsigned deviceJobs, engineJobs;
    };
    const Split splits[] = {{1, 1}, {2, 1}, {1, 8}, {4, 8}};

    auto runOnce = [](const Split &sp) {
        ShardedSystem sys(smallFunctionalParams(), 4);
        const std::uint64_t per =
            sys.params().bytesPerSubarray();
        Rng rng(123);
        for (unsigned d = 0; d < 4; ++d) {
            std::vector<std::uint8_t> blob(2048);
            for (auto &x : blob)
                x = std::uint8_t(rng.below(256));
            sys.device(d).write(0, blob);
        }
        FaultConfig fc;
        fc.pStep = 2e-4;
        fc.pWrite0 = 1e-3;
        fc.writeEndurance = 400.0;
        for (unsigned d = 0; d < 4; ++d) {
            fc.seed = ShardedSystem::deviceSeed(77, d);
            sys.device(d).enableFaultInjection(fc);
        }
        for (unsigned d = 0; d < 4; ++d)
            for (unsigned i = 0; i < 16; ++i) {
                Vpc v;
                v.kind = static_cast<VpcKind>(i % 4);
                v.size = 16;
                v.src1 = (std::uint64_t(i) * 37) % 1024;
                v.src2 = (i % 3 == 2 ? per : 0) + 1024 +
                         std::uint64_t(i) * 16;
                v.dst = 4096 + std::uint64_t(i) * 64;
                EXPECT_TRUE(sys.submit(d, v));
            }
        std::vector<std::vector<VpcExecutionRecord>> records;
        sys.processAll(records, sp.deviceJobs, sp.engineJobs);

        struct Snapshot
        {
            std::vector<std::uint8_t> memory;
            std::vector<FaultStatus> statuses;
            std::uint64_t pulses, deposits;
        } snap;
        FaultStats stats;
        for (unsigned d = 0; d < 4; ++d) {
            sys.device(d).disableFaultInjection();
            auto img = sys.device(d).read(0, 8192);
            snap.memory.insert(snap.memory.end(), img.begin(),
                               img.end());
            for (const VpcExecutionRecord &r : records[d])
                snap.statuses.push_back(r.fault.status);
            stats.merge(sys.device(d).totalFaultStats());
        }
        snap.pulses = stats.pulses;
        snap.deposits = stats.depositPulses;
        return snap;
    };

    const auto ref = runOnce(splits[0]);
    EXPECT_GT(ref.deposits, 0u);
    ASSERT_EQ(ref.statuses.size(), 64u);
    for (std::size_t s = 1; s < 4; ++s) {
        SCOPED_TRACE(testing::Message()
                     << "deviceJobs=" << splits[s].deviceJobs
                     << " engineJobs=" << splits[s].engineJobs);
        const auto got = runOnce(splits[s]);
        EXPECT_EQ(got.memory, ref.memory);
        EXPECT_EQ(got.statuses, ref.statuses);
        EXPECT_EQ(got.pulses, ref.pulses);
        EXPECT_EQ(got.deposits, ref.deposits);
    }
}

TEST(ShardedSystem, CampaignDeviceZeroIsTheUnshardedRun)
{
    const ShardedFaultCampaignResult fleet =
        runShardedFaultCampaign(faultyBase(), 4);
    ASSERT_EQ(fleet.devices(), 4u);
    EXPECT_TRUE(fleet.invariantHolds());
    // The fleet exercised the fault machinery.
    EXPECT_GT(fleet.stats.depositPulses, 0u);

    const FaultCampaignResult single = runFaultCampaign(faultyBase());
    expectCampaignEq(fleet.perDevice[0], single, "device 0");
    expectFleetSums(fleet);
}

TEST(ShardedSystem, CampaignEveryDeviceIsTheSingleDeviceRun)
{
    // Device d runs the single-device campaign at deviceSeed(seed,
    // d): inputs and injectors alike.
    const FaultCampaignConfig base = faultyBase();
    const ShardedFaultCampaignResult fleet =
        runShardedFaultCampaign(base, 4);
    for (unsigned d = 1; d < 4; ++d) {
        FaultCampaignConfig dev = base;
        dev.seed = ShardedSystem::deviceSeed(base.seed, d);
        SCOPED_TRACE(testing::Message() << "device " << d);
        expectCampaignEq(fleet.perDevice[d], runFaultCampaign(dev),
                         "fleet device");
    }
}

TEST(ShardedSystem, CampaignTrajectoriesInvariantUnderFleetSize)
{
    const auto small_fleet = runShardedFaultCampaign(faultyBase(), 2);
    const auto big_fleet = runShardedFaultCampaign(faultyBase(), 4);
    // Growing the fleet from 2 to 4 devices must not perturb the
    // first two devices' trajectories: seeds are pure functions of
    // (master seed, device index).
    for (unsigned d = 0; d < 2; ++d)
        expectCampaignEq(small_fleet.perDevice[d],
                         big_fleet.perDevice[d], "fleet resize");
    // The extra devices are decorrelated, not clones: their RNG
    // streams differ, so their pulse counts (continuous sampling)
    // do too.
    EXPECT_NE(big_fleet.perDevice[2].stats.pulses,
              big_fleet.perDevice[0].stats.pulses);
}

TEST(ShardedSystem, CampaignIdenticalAcrossDrainSchedules)
{
    FaultCampaignConfig base = faultyBase();
    base.engineJobs = 1;
    const auto serial = runShardedFaultCampaign(base, 3, 1);

    base.engineJobs = 8;
    const auto parallel = runShardedFaultCampaign(base, 3, 3);

    for (unsigned d = 0; d < 3; ++d)
        expectCampaignEq(serial.perDevice[d],
                         parallel.perDevice[d], "drain schedule");
}

TEST(ShardedSystem, FleetSumsEveryTallyFieldUnderFailures)
{
    // Aggressive shift faults with poor coverage, so Failed VPCs
    // and their lost/intact split are in play.
    FaultCampaignConfig base = faultyBase();
    base.pStep = 1e-2;
    base.guardCoverage = 0.5;
    const ShardedFaultCampaignResult fleet =
        runShardedFaultCampaign(base, 3);
    EXPECT_GT(fleet.failed, 0u);
    expectFleetSums(fleet);
}

TEST(ShardedSystemDeath, ZeroDevicesIsFatal)
{
    EXPECT_EXIT(ShardedSystem(smallFunctionalParams(), 0),
                testing::ExitedWithCode(1), "device count");
}

TEST(ShardedSystemDeath, CampaignRejectsDeviceCountOutOfRange)
{
    const FaultCampaignConfig base;
    for (unsigned devices : {0u, 65u})
        EXPECT_EXIT(runShardedFaultCampaign(base, devices),
                    testing::ExitedWithCode(1), "device count");
}

} // namespace streampim
