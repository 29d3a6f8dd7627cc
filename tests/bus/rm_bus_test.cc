/**
 * @file
 * Tests for the segmented RM bus: the functional lane model, the
 * multi-lane bus, and the closed-form timing/energy model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "bus/rm_bus.hh"
#include "common/rng.hh"
#include "dwlogic/mode.hh"
#include "rm/fault_injector.hh"
#include "rm/params.hh"

namespace streampim
{
namespace
{

TEST(RmBusLane, StartsDrained)
{
    RmBusLane lane(4);
    EXPECT_TRUE(lane.drained());
    EXPECT_EQ(lane.occupancy(), 0u);
    EXPECT_FALSE(lane.takeOutput().has_value());
}

TEST(RmBusLane, InjectNeedsDataAndEmptySegments)
{
    RmBusLane lane(4);
    EXPECT_TRUE(lane.inject(7));
    // The data/empty couple rule refuses back-to-back injection.
    EXPECT_FALSE(lane.inject(8));
    lane.step();
    // After one step the word is at segment 1; segment 0 and 1 must
    // both be free, so injection is still refused.
    EXPECT_FALSE(lane.inject(8));
    lane.step();
    EXPECT_TRUE(lane.inject(8));
}

TEST(RmBusLane, WordTraversesOneSegmentPerCycle)
{
    RmBusLane lane(5);
    lane.inject(42);
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(lane.takeOutput().has_value());
        lane.step();
    }
    lane.step();
    EXPECT_EQ(lane.takeOutput(), std::optional<std::uint64_t>(42));
}

TEST(RmBusLane, TakeOutputRemovesWord)
{
    RmBusLane lane(2);
    lane.inject(5);
    lane.step();
    EXPECT_EQ(*lane.takeOutput(), 5u);
    EXPECT_FALSE(lane.takeOutput().has_value());
    EXPECT_TRUE(lane.drained());
}

TEST(RmBusLane, DataNeverOvertakesOrMerges)
{
    // Two words must stay ordered and separated.
    RmBusLane lane(8);
    lane.inject(1);
    lane.step();
    lane.step();
    lane.inject(2);
    std::vector<std::uint64_t> arrivals;
    for (int i = 0; i < 20; ++i) {
        lane.step();
        if (auto w = lane.takeOutput())
            arrivals.push_back(*w);
    }
    EXPECT_EQ(arrivals, (std::vector<std::uint64_t>{1, 2}));
}

TEST(RmBus, TransferAllPreservesPayload)
{
    RmBus bus(8, 6);
    std::vector<std::uint64_t> payload;
    for (int i = 0; i < 100; ++i)
        payload.push_back(std::uint64_t(i) * 3 + 1);
    Cycle cycles = 0;
    std::vector<std::uint64_t> arrived;
    bus.transferAllInto(payload, arrived, cycles);
    // Words never overtake and each wave leaves in lane order, so
    // the payload arrives exactly in injection order.
    EXPECT_EQ(arrived, payload);
    EXPECT_GT(cycles, 0u);
}

TEST(RmBus, MoreLanesFewerCycles)
{
    std::vector<std::uint64_t> payload(256, 9);
    std::vector<std::uint64_t> arrived;
    Cycle narrow = 0, wide = 0;
    RmBus bus1(2, 6);
    bus1.transferAllInto(payload, arrived, narrow);
    RmBus bus2(16, 6);
    bus2.transferAllInto(payload, arrived, wide);
    EXPECT_LT(wide, narrow);
}

/** Property: the functional bus takes exactly its pipeline count
 * (one cycle under RmBusTiming::transferCycles). */
class BusTimingSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(BusTimingSweep, FunctionalMatchesClosedForm)
{
    auto [words, segments] = GetParam();
    RmBus bus(8, segments);
    std::vector<std::uint64_t> payload(words, 0x5A);
    std::vector<std::uint64_t> arrived;
    Cycle functional = 0;
    bus.transferAllInto(payload, arrived, functional);
    // The first wave leaves after segments - 1 pulses, then one
    // wave every 2 cycles (each data segment trails an empty one).
    std::uint64_t waves = (words + 8 - 1) / 8;
    EXPECT_EQ(functional, Cycle(segments - 1 + 2 * (waves - 1)));
    EXPECT_EQ(arrived, payload);

    // One-domain segments and 8 bit-lanes per functional lane make a
    // timed wave carry the same 8 words over the same segments; the
    // timed transfer also charges the entry hop from the source port
    // into segment 0.
    RmParams rm;
    rm.busSegmentSize = 1;
    rm.busLengthDomains = segments;
    rm.busLanes = 8 * bus.lanes();
    const RmBusTiming timing(rm);
    ASSERT_EQ(timing.elementsPerWave(), bus.lanes());
    EXPECT_EQ(timing.transferCycles(words), functional + 1);
}

INSTANTIATE_TEST_SUITE_P(
    WordSegmentGrid, BusTimingSweep,
    ::testing::Combine(::testing::Values(1u, 8u, 64u, 333u),
                       ::testing::Values(4u, 8u, 16u)));

/** One transfer of @p payload with the strict mode forced to
 * @p strict (on: the per-pulse sweep; off: the closed form). */
std::pair<std::vector<std::uint64_t>, Cycle>
transferIn(RmBus &bus, const std::vector<std::uint64_t> &payload,
           bool strict, FaultInjector *faults = nullptr)
{
    ScopedStrictGates mode(strict);
    std::vector<std::uint64_t> arrived;
    Cycle cycles = 0;
    bus.transferAllInto(payload, arrived, cycles, faults, 8);
    return {arrived, cycles};
}

std::vector<std::uint64_t>
seededPayload(Rng &rng, std::uint64_t n)
{
    std::vector<std::uint64_t> payload(n);
    for (auto &w : payload)
        w = rng.next();
    return payload;
}

TEST(RmBusClosedForm, MatchesSteppedSweepOnSeededGrid)
{
    // Segment counts around the 64-segment occupancy word boundary
    // and past a second one, plus seeded draws in between.
    std::vector<unsigned> seg_counts = {2, 3, 4, 5, 63, 64, 65,
                                        127, 128, 129, 130};
    Rng rng(2024);
    for (int i = 0; i < 6; ++i)
        seg_counts.push_back(2 + unsigned(rng.below(129)));
    for (unsigned segments : seg_counts)
        for (unsigned lanes = 1; lanes <= 9; ++lanes) {
            // Empty, partial first wave, exact waves, and up to
            // several waves plus a remainder.
            std::vector<std::uint64_t> counts = {
                0, 1, lanes, lanes + 1, 3 * lanes - 1,
                1 + rng.below(6 * lanes)};
            RmBus closed_bus(lanes, segments);
            RmBus stepped_bus(lanes, segments);
            for (std::uint64_t n : counts) {
                const auto payload = seededPayload(rng, n);
                const std::string at =
                    "segments " + std::to_string(segments) +
                    " lanes " + std::to_string(lanes) + " n " +
                    std::to_string(n);
                // Twice on the same buses: a transfer must leave
                // nothing behind for the next one.
                for (int rep = 0; rep < 2; ++rep) {
                    const auto closed =
                        transferIn(closed_bus, payload, false);
                    const auto stepped =
                        transferIn(stepped_bus, payload, true);
                    ASSERT_EQ(closed.first, stepped.first) << at;
                    ASSERT_EQ(closed.second, stepped.second) << at;
                    ASSERT_EQ(closed.first, payload) << at;
                    ASSERT_TRUE(closed_bus.drained()) << at;
                }
            }
        }
}

TEST(RmBusClosedForm, FaultFreeTransferAfterAbandonedFlits)
{
    // A fallible transfer whose recovery often gives up (the
    // smallest retry budget, a high step-fault rate) abandons flits;
    // the fault-free transfer right after it on the same bus must
    // still match the per-pulse sweep exactly.
    FaultConfig cfg;
    cfg.pStep = 0.1;
    cfg.realignRetryBudget = 1;
    cfg.seed = 41;
    FaultInjector closed_inj(cfg), stepped_inj(cfg);
    // Write faults alone do not make the bus fallible: only a
    // step-fault rate does.
    FaultConfig write_only;
    write_only.pWrite0 = 0.5;
    FaultInjector closed_wr(write_only), stepped_wr(write_only);

    Rng rng(7);
    RmBus closed_bus(8, 16), stepped_bus(8, 16);
    for (int round = 0; round < 4; ++round) {
        const auto faulty = seededPayload(rng, 100 + rng.below(200));
        const auto f1 =
            transferIn(closed_bus, faulty, false, &closed_inj);
        const auto f2 =
            transferIn(stepped_bus, faulty, true, &stepped_inj);
        ASSERT_EQ(f1, f2);
        ASSERT_EQ(closed_inj.stats(), stepped_inj.stats());

        const auto clean = seededPayload(rng, 1 + rng.below(200));
        const auto c1 =
            transferIn(closed_bus, clean, false, &closed_wr);
        const auto c2 =
            transferIn(stepped_bus, clean, true, &stepped_wr);
        EXPECT_EQ(c1, c2);
        EXPECT_EQ(c1.first, clean);
    }
    EXPECT_GT(closed_inj.stats().uncorrectable +
                  closed_inj.stats().budgetExhausted,
              0u);
    // Neither side sampled the write-only injector.
    EXPECT_EQ(closed_wr.stats(), FaultStats{});
    EXPECT_EQ(stepped_wr.stats(), FaultStats{});
}

TEST(RmBusClosedForm, BusHoldingWordsKeepsSteppedSweep)
{
    // A word injected by hand is still in flight when the transfer
    // starts, so the transfer cannot take the closed form; it steps
    // in both modes and delivers the same words in the same cycles.
    const std::vector<std::uint64_t> payload = {1, 2, 3, 4, 5};
    RmBus closed_bus(2, 6), stepped_bus(2, 6);
    ASSERT_TRUE(closed_bus.lane(1).inject(99));
    ASSERT_TRUE(stepped_bus.lane(1).inject(99));
    const auto closed = transferIn(closed_bus, payload, false);
    const auto stepped = transferIn(stepped_bus, payload, true);
    EXPECT_EQ(closed, stepped);
    EXPECT_NE(std::find(closed.first.begin(), closed.first.end(), 99u),
              closed.first.end());
}

TEST(RmBusTiming, SegmentCountFromGeometry)
{
    RmParams rm;
    rm.busLengthDomains = 4096;
    rm.busSegmentSize = 1024;
    RmBusTiming t(rm);
    EXPECT_EQ(t.segmentCount(), 4u);
    rm.busSegmentSize = 64;
    EXPECT_EQ(RmBusTiming(rm).segmentCount(), 64u);
}

TEST(RmBusTiming, SmallerSegmentsMoreCycles)
{
    RmParams rm;
    rm.busSegmentSize = 1024;
    Cycle big = RmBusTiming(rm).transferCycles(2000);
    rm.busSegmentSize = 64;
    Cycle small = RmBusTiming(rm).transferCycles(2000);
    EXPECT_GT(small, big);
}

TEST(RmBusTiming, EnergyIsFlatAcrossSegmentSizes)
{
    // The pulse-energy x pulse-count product is segment-size
    // independent (Table V's energy column).
    RmParams rm;
    auto energy_for = [&](unsigned seg) {
        rm.busSegmentSize = seg;
        EnergyMeter meter;
        RmEnergyModel energy(rm, meter);
        RmBusTiming(rm).recordTransferEnergy(energy, 8192);
        return meter.energyPj(EnergyOp::BusShift);
    };
    double e64 = energy_for(64);
    double e1024 = energy_for(1024);
    EXPECT_NEAR(e64 / e1024, 1.0, 0.05);
}

TEST(RmBusTiming, ZeroElementsCostNothing)
{
    RmParams rm;
    EXPECT_EQ(RmBusTiming(rm).transferCycles(0), 0u);
}

TEST(RmBusTiming, ElementsPerWave)
{
    RmParams rm; // 64 lanes, 1024-domain segments
    RmBusTiming t(rm);
    EXPECT_EQ(t.laneGroups(), 8u);
    EXPECT_EQ(t.elementsPerWave(), 8u * 1024u);
}

} // namespace
} // namespace streampim
