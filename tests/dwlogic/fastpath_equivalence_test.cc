/**
 * @file
 * Pins of the closed forms against the gate-netlist oracle.
 *
 * The dwlogic units are the netlist only; their constexpr *Delta
 * functions are the closed-form counts the RM processor's default
 * path charges. The unit tests here run one netlist operation on
 * fresh counters and require exactly the delta's counters (and the
 * arithmetic result). The processor tests run each vector op in
 * both modes (STREAMPIM_STRICT_GATES off and on) and require equal
 * values, cycles, LogicCounters, energy and overflow.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "dwlogic/adder.hh"
#include "dwlogic/circle_adder.hh"
#include "dwlogic/duplicator.hh"
#include "dwlogic/mode.hh"
#include "dwlogic/multiplier.hh"
#include "processor/rm_processor.hh"

namespace streampim
{
namespace
{

void
expectCountersEqual(const LogicCounters &fast,
                    const LogicCounters &strict)
{
    EXPECT_EQ(fast.gateOps, strict.gateOps);
    EXPECT_EQ(fast.shiftSteps, strict.shiftSteps);
    EXPECT_EQ(fast.fanOuts, strict.fanOuts);
    EXPECT_EQ(fast.diodePasses, strict.diodePasses);
    EXPECT_DOUBLE_EQ(fast.gateEnergyPj(), strict.gateEnergyPj());
}

/** @p d scaled by @p n. */
LogicCounters
times(const LogicCounters &d, std::uint64_t n)
{
    LogicCounters out;
    out.addScaled(d, n);
    return out;
}

std::uint64_t
lowMask(unsigned width)
{
    return width >= 64 ? ~0ull : (1ull << width) - 1;
}

TEST(FastPathEquivalence, RippleAdderRandom)
{
    for (unsigned width : {1u, 7u, 8u, 16u, 33u, 48u, 64u}) {
        Rng rng(width);
        for (int i = 0; i < 50; ++i) {
            const std::uint64_t mask = lowMask(width);
            const std::uint64_t a = rng.next() & mask;
            const std::uint64_t b = rng.next() & mask;
            LogicCounters c;
            DwRippleCarryAdder add(width, c);
            auto r = add.add(BitVec::fromWord(a, width),
                             BitVec::fromWord(b, width));
            EXPECT_EQ(r.sum.toWord(), (a + b) & mask);
            const bool carry = width == 64
                ? a + b < a
                : (((a + b) >> width) & 1) != 0;
            EXPECT_EQ(r.carry, carry);
            expectCountersEqual(DwRippleCarryAdder::addDelta(width),
                                c);
        }
    }
}

TEST(FastPathEquivalence, AdderCarryIn)
{
    LogicCounters c;
    DwRippleCarryAdder add(8, c);
    auto r = add.add(BitVec::fromWord(0xFF, 8),
                     BitVec::fromWord(0x00, 8), true);
    EXPECT_EQ(r.sum.toWord(), 0u);
    EXPECT_TRUE(r.carry);
    expectCountersEqual(DwRippleCarryAdder::addDelta(8), c);
}

TEST(FastPathEquivalence, AdderTreeMatchesSumDelta)
{
    // Odd operand counts forward a leftover uncounted at some level.
    Rng rng(19);
    for (unsigned operands : {1u, 2u, 3u, 5u, 8u, 13u}) {
        for (unsigned width : {4u, 16u, 33u}) {
            std::vector<std::uint64_t> values(operands);
            std::uint64_t total = 0;
            for (auto &v : values) {
                v = rng.next() & lowMask(width);
                total += v;
            }
            LogicCounters c;
            DwAdderTree tree(operands, width, c);
            EXPECT_EQ(tree.sumWords(values), total);
            expectCountersEqual(
                DwAdderTree::sumDelta(operands, width), c);
        }
    }
}

TEST(FastPathEquivalence, MultiplierRandomIncludingWide)
{
    // Widths beyond the 32-bit single-word product included.
    for (unsigned width : {4u, 8u, 16u, 33u, 48u}) {
        Rng rng(width * 3 + 1);
        for (int i = 0; i < 20; ++i) {
            const std::uint64_t mask = lowMask(width);
            const std::uint64_t a = rng.next() & mask;
            const std::uint64_t b = rng.next() & mask;
            const BitVec av = BitVec::fromWord(a, width);
            const BitVec bv = BitVec::fromWord(b, width);

            LogicCounters row_c;
            DwMultiplier row_mul(width, row_c);
            const unsigned row = unsigned(i) % width;
            const BitVec pp =
                row_mul.partialProduct(av, bv.get(row), row);
            for (unsigned k = 0; k < 2 * width; ++k)
                EXPECT_EQ(pp.get(k), bv.get(row) && k >= row &&
                                         k < row + width &&
                                         av.get(k - row));
            expectCountersEqual(
                DwMultiplier::partialProductDelta(width), row_c);

            LogicCounters c;
            DwMultiplier mul(width, c);
            const std::vector<BitVec> replicas(width, av);
            const BitVec product = mul.multiplyReplicas(replicas, bv);
            const unsigned __int128 expect =
                (unsigned __int128)a * b;
            EXPECT_EQ(product.word(0), std::uint64_t(expect));
            if (product.size() > 64) {
                EXPECT_EQ(product.word(1),
                          std::uint64_t(expect >> 64));
            }
            expectCountersEqual(
                DwMultiplier::multiplyReplicasDelta(width), c);
        }
    }
}

TEST(FastPathEquivalence, MultiplierFullFlowWithDuplicator)
{
    Rng rng(23);
    for (int i = 0; i < 20; ++i) {
        const std::uint64_t a = rng.below(256);
        const std::uint64_t b = rng.below(256);
        LogicCounters c;
        DwMultiplier mul(8, c);
        Duplicator dup(8, c);
        dup.load(BitVec::fromWord(a, 8));
        BitVec product = mul.multiply(dup, BitVec::fromWord(b, 8));
        EXPECT_EQ(dup.unload().toWord(), a);
        EXPECT_EQ(product.toWord(), a * b);
        LogicCounters expect = times(Duplicator::duplicateDelta(8), 8);
        expect += DwMultiplier::multiplyReplicasDelta(8);
        expectCountersEqual(expect, c);
    }
}

TEST(FastPathEquivalence, CircleAdderAccumulation)
{
    Rng rng(41);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<std::uint64_t> products;
        std::uint64_t total = 0;
        for (int i = 0; i < 8; ++i) {
            products.push_back(rng.below(1u << 16));
            total += products.back();
        }
        LogicCounters c;
        CircleAdder acc(32, c);
        for (std::uint64_t p : products)
            acc.accumulateWord(p, 16);
        EXPECT_EQ(acc.accumulatorWord(), total);
        EXPECT_FALSE(acc.overflowed());
        expectCountersEqual(
            times(CircleAdder::accumulateDelta(32), products.size()),
            c);

        // Scalar-addition mode leaves the accumulator alone.
        LogicCounters add_c;
        CircleAdder adder(32, add_c);
        const BitVec sum = adder.addScalars(
            BitVec::fromWord(products[0], 16),
            BitVec::fromWord(products[1], 16));
        EXPECT_EQ(sum.toWord(), products[0] + products[1]);
        EXPECT_EQ(adder.accumulatorWord(), 0u);
        expectCountersEqual(CircleAdder::addScalarsDelta(32), add_c);
    }
}

TEST(FastPathEquivalence, DuplicatorReplicas)
{
    Rng rng(43);
    for (int i = 0; i < 20; ++i) {
        const std::uint64_t word = rng.below(1u << 16);
        LogicCounters c;
        Duplicator dup(16, c);
        dup.load(BitVec::fromWord(word, 16));
        for (int r = 0; r < 4; ++r)
            EXPECT_EQ(dup.duplicate().toWord(), word);
        EXPECT_EQ(dup.unload().toWord(), word);
        EXPECT_EQ(dup.cycles(), 4u);
        expectCountersEqual(times(Duplicator::duplicateDelta(16), 4),
                            c);
    }
}

/** Everything one processor op reports, in one mode. */
struct ProcessorRun
{
    ProcessorResult result;
    LogicCounters counters;
    double energyPj = 0.0;
};

/** Run @p op on a fresh processor with the mode forced to
 * @p strict. */
template <typename Op>
ProcessorRun
runProcessor(bool strict, Op op)
{
    ScopedStrictGates mode(strict);
    RmParams params;
    EnergyMeter meter;
    RmProcessor proc(params, meter);
    ProcessorRun run;
    op(proc, run.result);
    run.counters = proc.counters();
    run.energyPj = meter.totalPj();
    return run;
}

void
expectRunsEqual(const ProcessorRun &fast, const ProcessorRun &strict)
{
    EXPECT_EQ(fast.result.values, strict.result.values);
    EXPECT_EQ(fast.result.cycles, strict.result.cycles);
    EXPECT_EQ(fast.result.overflow, strict.result.overflow);
    expectCountersEqual(fast.counters, strict.counters);
    EXPECT_DOUBLE_EQ(fast.energyPj, strict.energyPj);
}

TEST(FastPathEquivalence, ProcessorDotProduct)
{
    Rng rng(53);
    std::vector<std::uint8_t> a(37), b(37);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = std::uint8_t(rng.below(256));
        b[i] = std::uint8_t(rng.below(256));
    }
    auto dot = [&](RmProcessor &proc, ProcessorResult &r) {
        proc.dotProductInto(a, b, r);
    };
    const ProcessorRun fast = runProcessor(false, dot);
    const ProcessorRun strict = runProcessor(true, dot);
    ASSERT_EQ(fast.result.values.size(), 1u);
    expectRunsEqual(fast, strict);
}

TEST(FastPathEquivalence, ProcessorScalarMulAndVectorAdd)
{
    Rng rng(59);
    std::vector<std::uint8_t> a(41), b(41);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = std::uint8_t(rng.below(256));
        b[i] = std::uint8_t(rng.below(256));
    }
    // 255 * 255 and 255 + 255 reach the top product / sum bit.
    a[0] = b[0] = 255;
    for (std::uint8_t scalar : {0, 1, 173, 255}) {
        auto smul = [&](RmProcessor &proc, ProcessorResult &r) {
            proc.scalarVectorMulInto(scalar, a, r);
        };
        const ProcessorRun fast = runProcessor(false, smul);
        const ProcessorRun strict = runProcessor(true, smul);
        ASSERT_EQ(fast.result.values.size(), a.size());
        EXPECT_EQ(fast.result.values[0], 255u * scalar);
        expectRunsEqual(fast, strict);
    }
    auto add = [&](RmProcessor &proc, ProcessorResult &r) {
        proc.vectorAddInto(a, b, r);
    };
    const ProcessorRun fast = runProcessor(false, add);
    const ProcessorRun strict = runProcessor(true, add);
    ASSERT_EQ(fast.result.values.size(), a.size());
    EXPECT_EQ(fast.result.values[0], 510u);
    expectRunsEqual(fast, strict);
}

TEST(FastPathEquivalence, ModeSwitchIsRuntime)
{
    // The mode is a runtime switch, not a build-time one: flipping
    // it mid-process on one processor changes which implementation
    // runs without changing any observable output, and the netlist
    // continues from the state the closed form installed.
    const bool prev = strictGates();
    RmParams params;
    EnergyMeter meter;
    RmProcessor proc(params, meter);
    const std::vector<std::uint8_t> a = {200, 17, 255, 3};
    const std::vector<std::uint8_t> b = {100, 250, 255, 9};
    ProcessorResult r1, r2;
    setStrictGates(false);
    proc.dotProductInto(a, b, r1);
    const LogicCounters c1 = proc.counters();
    setStrictGates(true);
    proc.dotProductInto(a, b, r2);
    setStrictGates(prev);
    const LogicCounters c2 = proc.counters();
    EXPECT_EQ(r1.values, r2.values);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(c2.gateOps, 2 * c1.gateOps);
    EXPECT_EQ(c2.shiftSteps, 2 * c1.shiftSteps);
    EXPECT_EQ(c2.fanOuts, 2 * c1.fanOuts);
    EXPECT_EQ(c2.diodePasses, 2 * c1.diodePasses);
}

} // namespace
} // namespace streampim
