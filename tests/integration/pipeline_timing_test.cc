/**
 * @file
 * Integration: the cycle-stepped pipeline (processor/pipeline.hh)
 * must agree with the closed-form ProcessorTiming model that the
 * fast executor uses — in both cycle counts and computed values.
 * This is the validation DESIGN.md promises for the two-level
 * fidelity scheme.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "processor/pipeline.hh"
#include "processor/rm_processor.hh"

namespace streampim
{
namespace
{

RmParams
withDuplicators(unsigned d)
{
    RmParams p;
    p.duplicators = d;
    return p;
}

TEST(PipelineTiming, SingleElementLatencyEqualsDepth)
{
    RmParams p = withDuplicators(2);
    DotPipeline pipe(p);
    pipe.feed(3, 5);
    pipe.drain();
    ProcessorTiming t(p);
    EXPECT_EQ(pipe.lastRetireCycle(), t.dotProductCycles(1));
    EXPECT_EQ(pipe.accumulator(), 15u);
}

/** The key property: for any stream length and duplicator count,
 * the stepped pipeline retires its last element exactly at the
 * closed-form dotProductCycles(n). */
class PipelineVsClosedForm
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(PipelineVsClosedForm, LastRetireMatches)
{
    auto [n, dups] = GetParam();
    RmParams p = withDuplicators(dups);
    DotPipeline pipe(p);
    Rng rng(n * 7 + dups);
    std::uint32_t expect = 0;
    for (unsigned i = 0; i < n; ++i) {
        auto a = std::uint8_t(rng.below(256));
        auto b = std::uint8_t(rng.below(256));
        pipe.feed(a, b);
        expect += std::uint32_t(a) * b;
    }
    pipe.drain();
    ProcessorTiming t(p);
    EXPECT_EQ(pipe.lastRetireCycle(), t.dotProductCycles(n))
        << "n=" << n << " duplicators=" << dups;
    EXPECT_EQ(pipe.accumulator(), expect);
    EXPECT_EQ(pipe.retired().size(), n);
}

INSTANTIATE_TEST_SUITE_P(
    StreamGrid, PipelineVsClosedForm,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 8u, 17u, 64u),
                       ::testing::Values(1u, 2u, 4u, 8u)));

TEST(PipelineTiming, ElementsRetireInOrderAtIIRate)
{
    RmParams p = withDuplicators(2);
    DotPipeline pipe(p);
    for (int i = 0; i < 10; ++i)
        pipe.feed(std::uint8_t(i), 1);
    pipe.drain();
    ProcessorTiming t(p);
    const auto &retired = pipe.retired();
    ASSERT_EQ(retired.size(), 10u);
    for (std::size_t i = 0; i < retired.size(); ++i) {
        EXPECT_EQ(retired[i].product, i);
        if (i > 0) {
            EXPECT_EQ(retired[i].retiredAt - retired[i - 1].retiredAt,
                      t.multiplyII());
        }
    }
}

TEST(PipelineTiming, BitAccurateProcessorAgreesWithPipeline)
{
    // Third leg of the triangle: RmProcessor (dwlogic-based) and
    // DotPipeline (stage-stepped) must produce identical values and
    // report identical cycle counts.
    RmParams p = withDuplicators(2);
    EnergyMeter meter;
    RmProcessor proc(p, meter);
    DotPipeline pipe(p);

    Rng rng(99);
    std::vector<std::uint8_t> a(25), b(25);
    for (unsigned i = 0; i < 25; ++i) {
        a[i] = std::uint8_t(rng.below(256));
        b[i] = std::uint8_t(rng.below(256));
        pipe.feed(a[i], b[i]);
    }
    pipe.drain();
    ProcessorResult r;
    proc.dotProductInto(a, b, r);
    EXPECT_EQ(pipe.accumulator(), r.values.at(0));
    EXPECT_EQ(pipe.lastRetireCycle(), r.cycles);
}

TEST(PipelineTiming, FeedWhileRunning)
{
    // Elements fed mid-flight still respect the admission rate.
    RmParams p = withDuplicators(2);
    DotPipeline pipe(p);
    pipe.feed(1, 1);
    for (int i = 0; i < 3; ++i)
        pipe.step();
    pipe.feed(2, 2);
    pipe.drain();
    EXPECT_EQ(pipe.accumulator(), 1u + 4u);
}

TEST(PipelineTimingDeath, LastRetireBeforeAnyRetirePanics)
{
    RmParams p = withDuplicators(2);
    DotPipeline pipe(p);
    EXPECT_DEATH(pipe.lastRetireCycle(), "nothing retired");
}

} // namespace
} // namespace streampim
