/**
 * @file
 * Tests for the racetrack nanowire functional model.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "rm/fault_injector.hh"
#include "rm/nanowire.hh"

namespace streampim
{
namespace
{

TEST(Nanowire, GeometryDerivation)
{
    Nanowire w(256, 64);
    EXPECT_EQ(w.ports(), 4u);
    EXPECT_EQ(w.offset(), 0);
}

TEST(Nanowire, FirstDomainOfEachGroupIsAlignedAtRest)
{
    Nanowire w(256, 64);
    EXPECT_TRUE(w.alignedAtPort(0));
    EXPECT_TRUE(w.alignedAtPort(64));
    EXPECT_TRUE(w.alignedAtPort(128));
    EXPECT_FALSE(w.alignedAtPort(1));
    EXPECT_FALSE(w.alignedAtPort(63));
}

TEST(Nanowire, AlignShiftsByOffsetWithinGroup)
{
    Nanowire w(256, 64);
    EXPECT_EQ(w.alignToPort(5), 5u);
    EXPECT_TRUE(w.alignedAtPort(5));
    // The same offset aligns the peer domain in every group.
    EXPECT_TRUE(w.alignedAtPort(64 + 5));
}

TEST(Nanowire, ReadWriteThroughPort)
{
    Nanowire w(128, 64);
    w.alignToPort(10);
    w.write(10, true);
    EXPECT_TRUE(w.read(10));
    w.alignToPort(0);
    w.alignToPort(10);
    EXPECT_TRUE(w.read(10)); // data survives shifting away and back
}

TEST(Nanowire, ShiftStepsAreCounted)
{
    Nanowire w(128, 64);
    EXPECT_EQ(w.alignToPort(0), 0u);
    EXPECT_EQ(w.alignToPort(63), 63u); // 63 steps toward lower
    EXPECT_EQ(w.alignToPort(0), 63u);  // 63 steps back
}

TEST(Nanowire, StepsToAlignSigns)
{
    Nanowire w(128, 64);
    EXPECT_EQ(w.stepsToAlign(7), -7);
    w.alignToPort(7);
    EXPECT_EQ(w.stepsToAlign(7), 0);
    EXPECT_EQ(w.stepsToAlign(3), 4); // shift back toward higher
}

TEST(Nanowire, BulkReadWriteRoundTrip)
{
    Nanowire w(64, 64);
    BitVec data = BitVec::fromWord(0xDEADBEEF, 32);
    data.resize(64);
    w.writeAll(data);
    EXPECT_EQ(w.readAll().toWord(), data.toWord());
}

TEST(NanowireDeath, OverShiftPanics)
{
    Nanowire w(128, 64);
    // Reserved span is one port group (64); 65 steps falls off.
    EXPECT_DEATH(w.shift(ShiftDir::TowardLower, 65), "over-shift");
}

TEST(NanowireDeath, OverShiftPanicNamesOffsetAndBounds)
{
    Nanowire w(128, 64);
    // The message must name the attempted offset and the reserved
    // region so a failing run is diagnosable without a debugger.
    EXPECT_DEATH(
        w.shift(ShiftDir::TowardLower, 65),
        "attempted offset -65 .*outside reserved region "
        "\\[-64, 64\\]");
}

TEST(Nanowire, TryShiftWithoutInjectorMatchesShift)
{
    Nanowire a(128, 64), b(128, 64);
    a.shift(ShiftDir::TowardHigher, 10);
    ShiftAttempt att = b.tryShift(ShiftDir::TowardHigher, 10, nullptr);
    EXPECT_EQ(att.outcome, ShiftOutcome::Exact);
    EXPECT_EQ(att.applied, 10);
    EXPECT_FALSE(att.clamped);
    EXPECT_EQ(a.offset(), b.offset());
}

TEST(Nanowire, TryShiftOverShiftLandsOnePastTarget)
{
    FaultConfig cfg;
    cfg.pStep = 0.999999;
    cfg.overFraction = 1.0;
    FaultInjector inj(cfg);
    Nanowire w(128, 64);
    ShiftAttempt att = w.tryShift(ShiftDir::TowardHigher, 10, &inj);
    EXPECT_EQ(att.outcome, ShiftOutcome::OverShift);
    EXPECT_EQ(att.applied, 11);
    EXPECT_EQ(w.offset(), 11);
}

TEST(Nanowire, TryShiftUnderShiftStopsOneShort)
{
    FaultConfig cfg;
    cfg.pStep = 0.999999;
    cfg.overFraction = 0.0;
    FaultInjector inj(cfg);
    Nanowire w(128, 64);
    ShiftAttempt att = w.tryShift(ShiftDir::TowardLower, 10, &inj);
    EXPECT_EQ(att.outcome, ShiftOutcome::UnderShift);
    EXPECT_EQ(att.applied, -9);
    EXPECT_EQ(w.offset(), -9);
}

TEST(Nanowire, TryShiftClampsFaultyTravelAtWireEnd)
{
    FaultConfig cfg;
    cfg.pStep = 0.999999;
    cfg.overFraction = 1.0;
    FaultInjector inj(cfg);
    Nanowire w(128, 64);
    // Intended target is the reserved boundary itself; the faulty
    // extra step pins at the physical end instead of panicking.
    ShiftAttempt att = w.tryShift(ShiftDir::TowardHigher, 64, &inj);
    EXPECT_TRUE(att.clamped);
    EXPECT_EQ(w.offset(), 64);
    EXPECT_EQ(inj.stats().clampedAtWireEnd, 1u);
}

TEST(Nanowire, TryShiftIllegalIntentUnderInjectionIsRecoverable)
{
    // With a live injector, an intended target outside the reserved
    // region (the caller's position view drifted under injection)
    // must never abort the process: the interlock pins travel at
    // the wire end and escalates the scoped VPC to Failed so the
    // recovery ladder handles it.
    FaultConfig cfg;
    // Injection live (pStep > 0) but vanishingly unlikely to fire,
    // so the pulse itself deterministically lands exactly.
    cfg.pStep = 1e-12;
    FaultInjector inj(cfg);
    Nanowire w(128, 64);
    inj.beginVpc();
    ShiftAttempt att = w.tryShift(ShiftDir::TowardLower, 65, &inj);
    VpcFaultInfo info = inj.endVpc();
    EXPECT_TRUE(att.overtravel);
    EXPECT_TRUE(att.clamped);
    EXPECT_EQ(w.offset(), -64); // pinned at the wire end
    EXPECT_EQ(att.applied, -64);
    EXPECT_EQ(inj.stats().overtravelInterlocks, 1u);
    EXPECT_EQ(inj.stats().clampedAtWireEnd, 1u);
    EXPECT_EQ(info.status, FaultStatus::Failed);
    // The wire remains usable after the interlock fired.
    w.shift(ShiftDir::TowardHigher, 64);
    EXPECT_EQ(w.offset(), 0);
}

TEST(NanowireDeath, ShiftIllegalIntentWithoutInjectorStillPanics)
{
    // Without a live injector the same intent cannot come from a
    // fault sample — it is a true caller bug and must keep
    // panicking (both the plain and the fallible entry points).
    Nanowire w(128, 64);
    EXPECT_DEATH(w.shift(ShiftDir::TowardLower, 65), "over-shift");
    FaultConfig cfg;
    cfg.pStep = 0.0; // disabled injector: the fallible entry point
    FaultInjector inj(cfg); // degrades to the infallible shift()
    Nanowire w2(128, 64);
    EXPECT_DEATH(w2.tryShift(ShiftDir::TowardLower, 65, &inj),
                 "over-shift");
}

TEST(Nanowire, MisalignedPortSensesNeighborDomain)
{
    Nanowire w(128, 64);
    BitVec data(128);
    data.set(9, true);
    w.writeAll(data);
    // Align domain 10, then slip the train one extra position: the
    // port of domain 10's group now senses logical domain 9.
    w.alignToPort(10);
    w.shift(ShiftDir::TowardHigher, 1);
    EXPECT_FALSE(w.alignedAtPort(10));
    EXPECT_TRUE(w.senseAtPortOf(10));
    // A write through the misaligned port lands in domain 9 too.
    w.writeAtPortOf(10, false);
    w.alignToPort(9);
    EXPECT_FALSE(w.read(9));
}

TEST(NanowireDeath, MisalignedReadPanics)
{
    Nanowire w(128, 64);
    EXPECT_DEATH(w.read(5), "misaligned");
}

TEST(NanowireDeath, MisalignedWritePanics)
{
    Nanowire w(128, 64);
    EXPECT_DEATH(w.write(5, true), "misaligned");
}

TEST(NanowireDeath, BadGeometryPanics)
{
    EXPECT_DEATH(Nanowire(100, 64), "multiple");
}

/** Property: aligning any domain then reading back what was written. */
class NanowireSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(NanowireSweep, WriteReadAnyDomain)
{
    Nanowire w(256, 64);
    unsigned idx = GetParam();
    w.alignToPort(idx);
    w.write(idx, true);
    w.alignToPort((idx + 64) % 256);
    w.alignToPort(idx);
    EXPECT_TRUE(w.read(idx));
}

INSTANTIATE_TEST_SUITE_P(DomainSweep, NanowireSweep,
                         ::testing::Values(0u, 1u, 31u, 63u, 64u, 100u,
                                           127u, 200u, 255u));

TEST(Nanowire, AlignSweepMatchesRepeatedAlignToPort)
{
    Rng rng(5);
    for (unsigned per_port : {1u, 2u, 16u, 64u, 256u}) {
        for (int trial = 0; trial < 200; ++trial) {
            Nanowire sweep(256, per_port), step(256, per_port);
            // Start anywhere in the reserved region, including
            // offsets no alignment would leave behind.
            const int start = int(rng.below(2 * per_port + 1)) -
                              int(per_port);
            for (Nanowire *w : {&sweep, &step})
                w->shift(start < 0 ? ShiftDir::TowardLower
                                   : ShiftDir::TowardHigher,
                         unsigned(start < 0 ? -start : start));
            const unsigned first = unsigned(rng.below(256));
            const unsigned count = unsigned(rng.below(256 - first + 1));
            std::uint64_t stepped = 0;
            for (unsigned i = 0; i < count; ++i)
                stepped += step.alignToPort(first + i);
            EXPECT_EQ(sweep.alignSweep(first, count), stepped)
                << per_port << " " << start << " " << first << "+"
                << count;
            EXPECT_EQ(sweep.offset(), step.offset());
        }
    }
}

} // namespace
} // namespace streampim
