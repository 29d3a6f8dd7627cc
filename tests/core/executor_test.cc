/**
 * @file
 * Tests for the timed executor: resource semantics, dependency
 * handling, head-of-line blocking, breakdown bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "common/rss.hh"
#include "core/executor.hh"
#include "runtime/planner.hh"
#include "runtime/schedule.hh"
#include "sim/coverage.hh"
#include "support/schedules.hh"
#include "workloads/dnn.hh"
#include "workloads/polybench.hh"

namespace streampim
{
namespace
{

SystemConfig
baseConfig(OptLevel level = OptLevel::Unblock)
{
    SystemConfig cfg = SystemConfig::paperDefault();
    cfg.optLevel = level;
    cfg.vpcIssueTicks = 0; // keep tests focused on device timing
    return cfg;
}

VpcBatch
compute(std::uint32_t subarray, std::uint32_t count,
        std::uint32_t len, std::uint32_t dep = kNoBatch)
{
    VpcBatch b;
    b.kind = VpcKind::Mul;
    b.subarray = subarray;
    b.vpcCount = count;
    b.vectorLen = len;
    b.depA = dep;
    return b;
}

VpcBatch
tran(std::uint32_t src, std::uint32_t dst, std::uint32_t count,
     std::uint32_t len, std::uint32_t dep = kNoBatch)
{
    VpcBatch b;
    b.kind = VpcKind::Tran;
    b.subarray = src;
    b.dstSubarray = dst;
    b.vpcCount = count;
    b.vectorLen = len;
    b.depA = dep;
    return b;
}

TEST(Executor, EmptyScheduleIsInstant)
{
    Executor ex(baseConfig());
    ExecutionReport r = ex.run(VpcSchedule{});
    EXPECT_EQ(r.makespan, 0u);
    EXPECT_EQ(r.batches, 0u);
}

TEST(Executor, SingleComputeMatchesClosedForm)
{
    SystemConfig cfg = baseConfig();
    Executor ex(cfg);
    VpcSchedule s;
    s.push(compute(0, 1, 100));
    ExecutionReport r = ex.run(s);
    ProcessorTiming t(cfg.rm);
    RmBusTiming bus(cfg.rm);
    ClockDomain clk(cfg.rm.coreFreqHz);
    Tick expect = clk.cyclesToTicks(t.dotProductCycles(100) +
                                    bus.segmentCount());
    EXPECT_EQ(r.makespan, expect);
}

TEST(Executor, IndependentSubarraysOverlap)
{
    Executor ex(baseConfig());
    VpcSchedule serial;
    serial.push(compute(0, 1, 1000));
    serial.push(compute(0, 1, 1000));
    Tick two_on_one = ex.run(serial).makespan;

    VpcSchedule parallel;
    parallel.push(compute(0, 1, 1000));
    parallel.push(compute(1, 1, 1000));
    Tick on_two = ex.run(parallel).makespan;
    EXPECT_LT(on_two, two_on_one);
}

TEST(Executor, DependencySerializesAcrossSubarrays)
{
    Executor ex(baseConfig());
    VpcSchedule s;
    auto first = s.push(compute(0, 1, 500));
    s.push(compute(1, 1, 500, first));
    Tick chained = ex.run(s).makespan;

    VpcSchedule free;
    free.push(compute(0, 1, 500));
    free.push(compute(1, 1, 500));
    Tick unchained = ex.run(free).makespan;
    EXPECT_GT(chained, unchained);
}

TEST(Executor, BarrierWaitsForEverything)
{
    Executor ex(baseConfig());
    VpcSchedule s;
    s.push(compute(0, 1, 2000));
    s.push(compute(1, 1, 10));
    VpcBatch b = compute(2, 1, 10);
    b.barrier = true;
    s.push(b);
    ExecutionReport r = ex.run(s);
    // The barrier batch must start after the long batch finishes,
    // so the makespan exceeds the long batch alone.
    VpcSchedule alone;
    alone.push(compute(0, 1, 2000));
    EXPECT_GT(r.makespan, ex.run(alone).makespan);
}

TEST(Executor, TransferMovesThroughReadBusWrite)
{
    SystemConfig cfg = baseConfig();
    Executor ex(cfg);
    VpcSchedule s;
    s.push(tran(0, 1, 1, 640)); // 640 B = 10 row ops
    ExecutionReport r = ex.run(s);
    EXPECT_EQ(r.breakdown.readTicks, 10 * cfg.rm.readTicks());
    EXPECT_EQ(r.breakdown.writeTicks, 10 * cfg.rm.writeTicks());
    EXPECT_GT(r.makespan,
              r.breakdown.readTicks + r.breakdown.writeTicks);
    EXPECT_EQ(r.energy.count(EnergyOp::RmRead), 10u);
    EXPECT_EQ(r.energy.count(EnergyOp::RmWrite), 10u);
}

TEST(Executor, HeadOfLineBlockingSerializesBank)
{
    // Under distribute (HOL on), a collect waiting on subarray 0's
    // long compute stalls the whole bank, so an independent compute
    // on subarray 1 (same bank) is pushed back. Under unblock it
    // is not.
    auto build = [] {
        VpcSchedule s;
        auto c0 = s.push(compute(0, 1, 4000));
        s.push(tran(0, 63, 1, 1, c0)); // collect, waits for c0
        s.push(compute(1, 1, 4000));   // same bank, independent
        return s;
    };
    Executor hol(baseConfig(OptLevel::Distribute));
    Executor free(baseConfig(OptLevel::Unblock));
    Tick with_hol = hol.run(build()).makespan;
    Tick without = free.run(build()).makespan;
    EXPECT_GT(with_hol, without);
    // With HOL the two computes serialize (roughly doubling time).
    EXPECT_GT(double(with_hol) / double(without), 1.7);
}

TEST(Executor, ElectricalBusAddsConversionTime)
{
    SystemConfig rm_cfg = baseConfig();
    SystemConfig e_cfg = baseConfig();
    e_cfg.busType = BusType::Electrical;
    VpcSchedule s;
    s.push(compute(0, 1, 2000));
    Tick rm_time = Executor(rm_cfg).run(s).makespan;
    Tick e_time = Executor(e_cfg).run(s).makespan;
    EXPECT_GT(e_time, rm_time);
    EXPECT_GT(Executor(e_cfg).run(s)
                  .energy.count(EnergyOp::BusElectrical),
              0u);
}

TEST(Executor, BreakdownCoverageIdentity)
{
    Executor ex(baseConfig());
    VpcSchedule s;
    auto c = s.push(tran(0, 1, 4, 512));
    s.push(compute(1, 2, 300, c));
    s.push(tran(1, 70, 2, 1, 1));
    ExecutionReport r = ex.run(s);
    const auto &b = r.breakdown;
    // exclusive + overlapped + idle partitions the makespan.
    EXPECT_EQ(b.exclusiveTransfer + b.exclusiveProcess +
                  b.overlapped + b.idle,
              r.makespan);
}

// --- Fig. 19 coverage -------------------------------------------------

struct Span
{
    Tick start;
    Tick end;
};

/** Brute-force oracle: union length of @p spans by sorting them all. */
Tick
unionTicks(std::vector<Span> spans)
{
    std::sort(spans.begin(), spans.end(),
              [](const Span &a, const Span &b) {
                  return a.start < b.start;
              });
    Tick total = 0;
    Tick cur_start = 0;
    Tick cur_end = 0;
    bool open = false;
    for (const Span &s : spans) {
        if (s.end <= s.start)
            continue;
        if (!open) {
            cur_start = s.start;
            cur_end = s.end;
            open = true;
        } else if (s.start <= cur_end) {
            cur_end = std::max(cur_end, s.end);
        } else {
            total += cur_end - cur_start;
            cur_start = s.start;
            cur_end = s.end;
        }
    }
    if (open)
        total += cur_end - cur_start;
    return total;
}

/** Oracle: maximal runs of @p spans, touching spans merged. */
std::size_t
unionComponents(std::vector<Span> spans)
{
    std::sort(spans.begin(), spans.end(),
              [](const Span &a, const Span &b) {
                  return a.start < b.start;
              });
    std::size_t count = 0;
    Tick cur_end = 0;
    for (const Span &s : spans) {
        if (s.end <= s.start)
            continue;
        if (count == 0 || s.start > cur_end) {
            ++count;
            cur_end = s.end;
        } else {
            cur_end = std::max(cur_end, s.end);
        }
    }
    return count;
}

/** The four coverage fields of TimeBreakdown from union lengths. */
TimeBreakdown
coverageSplit(Tick transfer, Tick process, Tick either, Tick makespan)
{
    TimeBreakdown b;
    b.overlapped = transfer + process - either;
    b.exclusiveTransfer = transfer - b.overlapped;
    b.exclusiveProcess = process - b.overlapped;
    b.idle = makespan > either ? makespan - either : 0;
    return b;
}

TimeBreakdown
oracleSplit(const std::vector<Span> &transfer,
            const std::vector<Span> &process, Tick makespan)
{
    std::vector<Span> both = transfer;
    both.insert(both.end(), process.begin(), process.end());
    return coverageSplit(unionTicks(transfer), unionTicks(process),
                         unionTicks(both), makespan);
}

void
expectSameCoverage(const TimeBreakdown &got, const TimeBreakdown &want)
{
    EXPECT_EQ(got.exclusiveTransfer, want.exclusiveTransfer);
    EXPECT_EQ(got.exclusiveProcess, want.exclusiveProcess);
    EXPECT_EQ(got.overlapped, want.overlapped);
    EXPECT_EQ(got.idle, want.idle);
}

/** Closed-form batch timings of a configuration, in ticks. */
struct Timings
{
    explicit Timings(const SystemConfig &c)
        : cfg(c), proc(c.rm), bus(c.rm), clk(c.rm.coreFreqHz)
    {}

    /** RM-bus first-wave fill of a compute batch. */
    Tick fill() const { return clk.cyclesToTicks(bus.segmentCount()); }

    /** Pipeline time of a MUL batch. */
    Tick
    mul(std::uint64_t count, std::uint64_t n) const
    {
        return clk.cyclesToTicks(proc.batchCycles(
            count, n, proc.dotProductCycles(n), proc.multiplyII()));
    }

    Tick rows(Tick per_row, std::uint64_t bytes) const
    {
        return (bytes + cfg.rowBytes() - 1) / cfg.rowBytes() * per_row;
    }
    Tick read(std::uint64_t bytes) const
    {
        return rows(cfg.rm.readTicks(), bytes);
    }
    Tick write(std::uint64_t bytes) const
    {
        return rows(cfg.rm.writeTicks(), bytes);
    }

    /** Bank-internal bus hop of a same-bank transfer. */
    Tick
    bankBus(std::uint64_t bytes) const
    {
        return clk.cyclesToTicks(
            (bytes + SystemConfig::kBankBusBytesPerCycle - 1) /
            SystemConfig::kBankBusBytesPerCycle);
    }

    SystemConfig cfg;
    ProcessorTiming proc;
    RmBusTiming bus;
    ClockDomain clk;
};

TEST(ExecutorCoverage, OutOfTimeOrderAcrossSubarrays)
{
    // The collect TRAN waits for a long compute, so its spans are
    // emitted before those of the independent compute on subarray 2
    // even though they lie much later in time.
    SystemConfig cfg = baseConfig();
    Timings t(cfg);
    VpcSchedule s;
    auto c0 = s.push(compute(0, 1, 2000));
    s.push(tran(0, 1, 1, 640, c0));
    s.push(compute(2, 1, 100));
    ExecutionReport r = Executor(cfg).run(s);

    const Tick f = t.fill();
    const Tick e0 = f + t.mul(1, 2000);
    const Tick rd = t.read(640);
    const Tick hop = t.bankBus(640);
    const Tick wr = t.write(640);
    ASSERT_LT(f + t.mul(1, 100), e0);
    EXPECT_EQ(r.makespan, e0 + rd + hop + wr);
    // Only the bus hop between the collect's read and write is
    // covered by neither category.
    EXPECT_EQ(r.breakdown.exclusiveTransfer, f + rd + wr);
    EXPECT_EQ(r.breakdown.exclusiveProcess, t.mul(1, 2000));
    EXPECT_EQ(r.breakdown.overlapped, 0u);
    EXPECT_EQ(r.breakdown.idle, hop);
}

TEST(ExecutorCoverage, TouchingSpansLeaveNoGap)
{
    // Back-to-back computes on one subarray, then a dependent one
    // on another: every span starts where the previous one ended.
    SystemConfig cfg = baseConfig();
    Timings t(cfg);
    VpcSchedule s;
    s.push(compute(0, 1, 500));
    auto c1 = s.push(compute(0, 1, 500));
    s.push(compute(1, 1, 500, c1));
    ExecutionReport r = Executor(cfg).run(s);

    const Tick f = t.fill();
    const Tick p = t.mul(1, 500);
    EXPECT_EQ(r.makespan, 3 * (f + p));
    EXPECT_EQ(r.breakdown.exclusiveTransfer, 3 * f);
    EXPECT_EQ(r.breakdown.exclusiveProcess, 3 * p);
    EXPECT_EQ(r.breakdown.overlapped, 0u);
    EXPECT_EQ(r.breakdown.idle, 0u);
}

TEST(ExecutorCoverage, ZeroLengthSpansAddNothing)
{
    SystemConfig cfg = baseConfig();
    VpcSchedule alone;
    alone.push(compute(0, 1, 300));
    VpcSchedule with_empty = alone;
    with_empty.push(tran(2, 3, 1, 0)); // no rows: empty read/write
    with_empty.push(tran(0, 4, 1, 0)); // empty span inside a run
    Executor ex(cfg);
    ExecutionReport a = ex.run(alone);
    ExecutionReport b = ex.run(with_empty);
    EXPECT_EQ(b.makespan, a.makespan);
    expectSameCoverage(b.breakdown, a.breakdown);
}

TEST(ExecutorCoverage, LateSpanFillsEarlierGap)
{
    // As OutOfTimeOrderAcrossSubarrays, plus a compute emitted last
    // that starts when the collect does: its fill covers the
    // collect's read and its processing covers the bus hop and the
    // write, closing the gap the earlier spans left.
    SystemConfig cfg = baseConfig();
    Timings t(cfg);
    VpcSchedule s;
    auto c0 = s.push(compute(0, 1, 2000));
    s.push(tran(0, 1, 1, 640, c0));
    s.push(compute(2, 1, 100));
    s.push(compute(3, 1, 2000, c0));
    ExecutionReport r = Executor(cfg).run(s);

    const Tick f = t.fill();
    const Tick p0 = t.mul(1, 2000);
    const Tick e0 = f + p0;
    const Tick rd = t.read(640);
    const Tick hop = t.bankBus(640);
    const Tick wr = t.write(640);
    const std::vector<Span> transfer = {
        {0, f}, {e0, e0 + rd}, {e0 + rd + hop, e0 + rd + hop + wr},
        {0, f}, {e0, e0 + f}};
    const std::vector<Span> process = {
        {f, e0}, {f, f + t.mul(1, 100)}, {e0 + f, e0 + f + p0}};
    ASSERT_LT(e0 + rd + hop + wr, e0 + f + p0);
    EXPECT_EQ(r.makespan, e0 + f + p0);
    expectSameCoverage(r.breakdown,
                       oracleSplit(transfer, process, r.makespan));
    EXPECT_EQ(r.breakdown.idle, 0u);
    EXPECT_GE(r.breakdown.overlapped, wr);
}

TEST(ExecutorCoverage, ElectricalBusTailFollowsProcessing)
{
    // No RM-bus fill: the serialized conversion and scalar egress
    // come after the pipeline within the same grant.
    SystemConfig cfg = baseConfig();
    cfg.busType = BusType::Electrical;
    Timings t(cfg);
    ElectricalBusTiming ebus(cfg.rm);
    VpcSchedule s;
    s.push(compute(0, 1, 100));
    ExecutionReport r = Executor(cfg).run(s);

    const Tick p = t.mul(1, 100);
    const Tick tail = 100 * ebus.perElementConversionTicks(0) +
                      ebus.wordEgressTicks(kAccumulatorBits);
    EXPECT_EQ(r.makespan, p + tail);
    EXPECT_EQ(r.breakdown.exclusiveTransfer, tail);
    EXPECT_EQ(r.breakdown.exclusiveProcess, p);
    EXPECT_EQ(r.breakdown.overlapped, 0u);
    EXPECT_EQ(r.breakdown.idle, 0u);
}

TEST(ExecutorCoverage, RmBusFillAndCorrectionTail)
{
    // Under shift faults an RM-bus compute has both a fill before
    // and a correction tail after its processing.
    SystemConfig cfg = baseConfig();
    cfg.rm.shiftFaultPStep = 1e-3;
    Timings t(cfg);
    VpcSchedule s;
    s.push(compute(0, 1, 100));
    ExecutionReport r = Executor(cfg).run(s);

    // A dot product streams two operands in and one scalar out.
    const Tick tail =
        t.clk.cyclesToTicks(t.bus.reliabilityCycles(2 * 100 + 1));
    ASSERT_GT(tail, 0u);
    EXPECT_EQ(r.makespan, t.fill() + t.mul(1, 100) + tail);
    EXPECT_EQ(r.breakdown.exclusiveTransfer, t.fill() + tail);
    EXPECT_EQ(r.breakdown.exclusiveProcess, t.mul(1, 100));
    EXPECT_EQ(r.breakdown.idle, 0u);
}

TEST(ExecutorCoverage, RecoveryCountsAsTransferCover)
{
    // Recovery TRANs run concurrently with a long compute on the
    // same bank bus. The flag reroutes accounting only, so their
    // spans cover time exactly like plain TRANs.
    SystemConfig cfg = baseConfig();
    Timings t(cfg);
    auto build = [](bool flagged) {
        VpcSchedule s;
        s.push(compute(0, 1, 2000));
        VpcBatch snap = tran(2, 3, 1, 640);
        snap.recovery = flagged;
        s.push(snap);
        VpcBatch rb = tran(4, 5, 1, 640);
        rb.recovery = flagged;
        s.push(rb);
        VpcBatch redo = compute(6, 1, 100);
        redo.recovery = flagged;
        s.push(redo);
        return s;
    };
    Executor ex(cfg);
    ExecutionReport r = ex.run(build(true));
    EXPECT_EQ(r.breakdown.readTicks, 0u);
    EXPECT_EQ(r.breakdown.writeTicks, 0u);
    EXPECT_EQ(r.breakdown.recoveryTicks,
              2 * (t.read(640) + t.write(640)) + t.mul(1, 100));
    EXPECT_EQ(r.energy.count(EnergyOp::RmRead), 0u);
    EXPECT_GT(r.energy.count(EnergyOp::Recovery), 0u);

    const Tick f = t.fill();
    const Tick rd = t.read(640);
    const Tick hop = t.bankBus(640);
    const Tick wr = t.write(640);
    // Both transfers read at once, then queue on the bank bus.
    const std::vector<Span> transfer = {
        {0, f},
        {0, rd}, {rd + hop, rd + hop + wr},
        {0, rd}, {rd + 2 * hop, rd + 2 * hop + wr},
        {0, f}};
    const std::vector<Span> process = {{f, f + t.mul(1, 2000)},
                                       {f, f + t.mul(1, 100)}};
    EXPECT_EQ(r.makespan, f + t.mul(1, 2000));
    expectSameCoverage(r.breakdown,
                       oracleSplit(transfer, process, r.makespan));
    EXPECT_GT(r.breakdown.overlapped, 0u);

    ExecutionReport plain = ex.run(build(false));
    EXPECT_EQ(plain.breakdown.recoveryTicks, 0u);
    EXPECT_EQ(plain.energy.count(EnergyOp::Recovery), 0u);
    EXPECT_EQ(plain.makespan, r.makespan);
    EXPECT_NEAR(plain.energy.totalPj(), r.energy.totalPj(),
                1e-9 * plain.energy.totalPj());
    expectSameCoverage(plain.breakdown, r.breakdown);
}

TEST(CoverageUnion, TouchingRunsAndLateGapFillMerge)
{
    CoverageUnion cov;
    cov.reset(3);
    // Resource 0 leaves a gap [10, 20) between two runs; a span on
    // resource 1, added last, fills it exactly.
    cov.add(CoverageKind::Transfer, 0, 0, 10);
    cov.add(CoverageKind::Transfer, 0, 20, 30);
    cov.add(CoverageKind::Transfer, 0, 30, 35); // touches: extends
    cov.add(CoverageKind::Transfer, 2, 50, 50); // empty: ignored
    cov.add(CoverageKind::Transfer, 2, 60, 70);
    cov.add(CoverageKind::Transfer, 2, 80, 90); // closes [60, 70)
    EXPECT_EQ(cov.components(CoverageKind::Transfer), 2u);
    cov.add(CoverageKind::Transfer, 1, 10, 20);
    cov.add(CoverageKind::Process, 1, 25, 65);
    const Coverage c = cov.finish();
    EXPECT_EQ(c.transfer, 35u + 10u + 10u);
    EXPECT_EQ(c.process, 40u);
    EXPECT_EQ(c.either, 70u + 10u);
    // [0, 35) and [60, 70) and [80, 90) stay apart; the gap fill
    // merged three pieces into one.
    EXPECT_EQ(cov.components(CoverageKind::Transfer), 3u);
}

TEST(CoverageUnion, RunsInsideABusyResourceAddNoComponents)
{
    // A transfer stream between two subarrays whose reads are
    // shorter than its writes: the source idles between spans while
    // the destination stays busy, so every closed source run lies
    // inside the destination's open run.
    constexpr Tick kBatches = 10000;
    CoverageUnion cov;
    cov.reset(2);
    for (Tick i = 0; i < kBatches; ++i) {
        cov.add(CoverageKind::Transfer, 1, 10 * i, 10 * i + 4);
        cov.add(CoverageKind::Transfer, 0, 10 * i, 10 * i + 10);
    }
    EXPECT_LE(cov.components(CoverageKind::Transfer), 1u);
    const Coverage c = cov.finish();
    EXPECT_EQ(c.transfer, 10 * kBatches);
    EXPECT_EQ(c.either, 10 * kBatches);
    EXPECT_EQ(cov.components(CoverageKind::Transfer), 1u);
}

TEST(CoverageUnion, MatchesSortOracleOnRandomSchedules)
{
    // Random grants on FIFO resources, each split into an optional
    // fill, processing and tail as the executor splits a compute
    // batch (or one transfer span for a read or write), emitted in a
    // random interleaving across resources.
    Rng rng(0xc0e7a9e);
    for (unsigned trial = 0; trial < 400; ++trial) {
        const std::size_t resources = 1 + rng.below(8);
        struct Emit
        {
            CoverageKind kind;
            Span span;
        };
        std::vector<std::vector<Emit>> streams(resources);
        for (auto &stream : streams) {
            Tick free_at = 0;
            const unsigned grants = unsigned(rng.below(12));
            for (unsigned g = 0; g < grants; ++g) {
                auto len = [&rng] {
                    return rng.below(3) == 0 ? Tick(0)
                                             : Tick(rng.below(40));
                };
                Tick at = free_at + (rng.below(2) ? 0 : rng.below(60));
                if (rng.below(3) == 0) {
                    const Tick d = len();
                    stream.push_back({CoverageKind::Transfer,
                                      {at, at + d}});
                    free_at = at + d;
                    continue;
                }
                const Tick fill = len();
                const Tick proc = len();
                const Tick tail = len();
                stream.push_back({CoverageKind::Transfer,
                                  {at, at + fill}});
                stream.push_back({CoverageKind::Process,
                                  {at + fill, at + fill + proc}});
                stream.push_back({CoverageKind::Transfer,
                                  {at + fill + proc,
                                   at + fill + proc + tail}});
                free_at = at + fill + proc + tail;
            }
        }

        CoverageUnion cov;
        cov.reset(resources);
        std::vector<Span> transfer, process;
        Tick makespan = 0;
        std::vector<std::size_t> next(resources, 0);
        std::size_t left = 0;
        for (const auto &stream : streams)
            left += stream.size();
        for (; left > 0; --left) {
            std::size_t r = rng.below(resources);
            while (next[r] == streams[r].size())
                r = (r + 1) % resources;
            const Emit &e = streams[r][next[r]++];
            cov.add(e.kind, r, e.span.start, e.span.end);
            (e.kind == CoverageKind::Transfer ? transfer : process)
                .push_back(e.span);
            makespan = std::max(makespan, e.span.end);
        }

        const Coverage c = cov.finish();
        SCOPED_TRACE(trial);
        expectSameCoverage(
            coverageSplit(c.transfer, c.process, c.either, makespan),
            oracleSplit(transfer, process, makespan));
    }
}

TEST(CoverageUnion, LateRunsFarBehindTheTailMatchOracle)
{
    // Each resource's stream spans the whole time range and streams
    // are emitted in large blocks, so most runs close far behind the
    // newest components: they take the late-run path, and enough of
    // them pile up to be merged before finish() as well as in it.
    Rng rng(0x1a7e5);
    for (unsigned trial = 0; trial < 12; ++trial) {
        const std::size_t resources = 20 + rng.below(30);
        std::vector<std::vector<std::pair<CoverageKind, Span>>> streams(
            resources);
        for (auto &stream : streams) {
            Tick at = rng.below(50);
            const unsigned spans = 200 + unsigned(rng.below(400));
            for (unsigned s = 0; s < spans; ++s) {
                const CoverageKind kind = rng.below(4) == 0
                    ? CoverageKind::Process
                    : CoverageKind::Transfer;
                const Tick len = rng.below(30);
                stream.push_back({kind, {at, at + len}});
                at += len + (rng.below(3) == 0 ? 0 : rng.below(80));
            }
        }

        CoverageUnion cov;
        cov.reset(resources);
        std::vector<Span> transfer, process;
        Tick makespan = 0;
        std::vector<std::size_t> next(resources, 0);
        std::size_t left = 0;
        for (const auto &stream : streams)
            left += stream.size();
        while (left > 0) {
            std::size_t r = rng.below(resources);
            while (next[r] == streams[r].size())
                r = (r + 1) % resources;
            const std::size_t block = 1 + rng.below(300);
            for (std::size_t k = 0;
                 k < block && next[r] < streams[r].size(); ++k, --left) {
                const auto &[kind, span] = streams[r][next[r]++];
                cov.add(kind, r, span.start, span.end);
                (kind == CoverageKind::Transfer ? transfer : process)
                    .push_back(span);
                makespan = std::max(makespan, span.end);
            }
        }

        const Coverage c = cov.finish();
        SCOPED_TRACE(trial);
        EXPECT_EQ(c.transfer, unionTicks(transfer));
        EXPECT_EQ(c.process, unionTicks(process));
        EXPECT_EQ(cov.components(CoverageKind::Transfer),
                  unionComponents(transfer));
        EXPECT_EQ(cov.components(CoverageKind::Process),
                  unionComponents(process));
        expectSameCoverage(
            coverageSplit(c.transfer, c.process, c.either, makespan),
            oracleSplit(transfer, process, makespan));
    }
}

TEST(CoverageUnion, BridgedGapsMatchSortOracle)
{
    // Sparse resources leave gaps of three kinds between their spans:
    // inside a merged component (the long run resource 0 closes
    // first), inside the open run extended last (resource 1's busy
    // stream, added just before), or covered by nothing yet. The
    // first two may be bridged, the last closes the run; the union
    // must match the oracle either way.
    Rng rng(0xb21d9e);
    std::size_t gaps[3] = {}; // component, open run, uncovered
    for (unsigned trial = 0; trial < 300; ++trial) {
        const std::size_t resources = 3 + rng.below(6);
        const CoverageKind kind = rng.below(2) ? CoverageKind::Transfer
                                               : CoverageKind::Process;
        const CoverageKind other = kind == CoverageKind::Transfer
            ? CoverageKind::Process
            : CoverageKind::Transfer;
        // Resource 1 streams the other kind in a third of the trials,
        // so the gaps then only see the component and each other.
        const CoverageKind busy_kind = rng.below(3) ? kind : other;

        CoverageUnion cov;
        cov.reset(resources);
        std::vector<Span> transfer, process;
        Tick makespan = 0;
        auto add = [&](CoverageKind k, std::size_t r, Span s) {
            cov.add(k, r, s.start, s.end);
            (k == CoverageKind::Transfer ? transfer : process)
                .push_back(s);
            makespan = std::max(makespan, s.end);
        };
        auto covered = [&](Span gap) {
            for (const Span &s :
                 kind == CoverageKind::Transfer ? transfer : process)
                if (s.start <= gap.start && gap.end <= s.end)
                    return true;
            return false;
        };

        // [0, h) closes into a component when resource 0 moves on.
        const Tick h = 200 + rng.below(400);
        add(kind, 0, {0, h});
        add(kind, 0, {5000 + rng.below(100), 5200});

        Span busy = {h / 2 + rng.below(h), 0};
        busy.end = busy.start;
        std::vector<Tick> last_end(resources, 0);
        std::vector<bool> started(resources, false);
        for (unsigned step = 0; step < 200; ++step) {
            bool busy_last = false;
            if (rng.below(2)) {
                const Tick len = 1 + rng.below(30);
                add(busy_kind, 1, {busy.end, busy.end + len});
                busy.end += len;
                busy_last = true;
            }
            const std::size_t r = 2 + rng.below(resources - 2);
            const Tick start = last_end[r] + rng.below(60);
            const Span span = {start, start + 1 + rng.below(20)};
            if (rng.below(5) == 0) {
                add(other, r, span);
                last_end[r] = span.end;
                continue;
            }
            const Span gap = {last_end[r], span.start};
            if (started[r] && gap.start < gap.end) {
                if (gap.end <= h)
                    ++gaps[0];
                else if (busy_last && busy_kind == kind &&
                         busy.start <= gap.start && gap.end <= busy.end)
                    ++gaps[1];
                else if (!covered(gap))
                    ++gaps[2];
            }
            add(kind, r, span);
            last_end[r] = span.end;
            started[r] = true;
        }

        const Coverage c = cov.finish();
        SCOPED_TRACE(trial);
        EXPECT_EQ(c.transfer, unionTicks(transfer));
        EXPECT_EQ(c.process, unionTicks(process));
        EXPECT_EQ(cov.components(CoverageKind::Transfer),
                  unionComponents(transfer));
        EXPECT_EQ(cov.components(CoverageKind::Process),
                  unionComponents(process));
        expectSameCoverage(
            coverageSplit(c.transfer, c.process, c.either, makespan),
            oracleSplit(transfer, process, makespan));
    }
    EXPECT_GT(gaps[0], 1000u);
    EXPECT_GT(gaps[1], 1000u);
    EXPECT_GT(gaps[2], 1000u);
}

TEST(CoverageUnion, CoveredGapsAddNoComponents)
{
    // Two streams whose every gap is already covered: one inside a
    // merged component, one inside the open run extended just
    // before. Both extend their open run across the gaps, so neither
    // adds a component while it streams.
    CoverageUnion cov;
    cov.reset(4);
    cov.add(CoverageKind::Transfer, 0, 0, 1000);
    cov.add(CoverageKind::Transfer, 0, 5000, 5010); // closes [0, 1000)
    ASSERT_EQ(cov.components(CoverageKind::Transfer), 1u);
    for (Tick i = 0; i < 100; ++i) {
        cov.add(CoverageKind::Transfer, 1, 10 * i, 10 * i + 4);
        EXPECT_EQ(cov.components(CoverageKind::Transfer), 1u) << i;
    }
    for (Tick i = 0; i < 100; ++i) {
        cov.add(CoverageKind::Transfer, 3, 6000 + 10 * i,
                6010 + 10 * i);
        cov.add(CoverageKind::Transfer, 2, 6000 + 10 * i,
                6003 + 10 * i);
        EXPECT_EQ(cov.components(CoverageKind::Transfer), 1u) << i;
    }
    const Coverage c = cov.finish();
    EXPECT_EQ(c.transfer, 1000u + 10u + 1000u);
    EXPECT_EQ(c.either, 1000u + 10u + 1000u);
    EXPECT_EQ(cov.components(CoverageKind::Transfer), 3u);
}

TEST(CoverageUnionDeath, SpanBeforeOpenRunPanics)
{
    CoverageUnion cov;
    cov.reset(1);
    cov.add(CoverageKind::Process, 0, 10, 20);
    EXPECT_DEATH(cov.add(CoverageKind::Process, 0, 5, 8),
                 "starts before");
}

TEST(Executor, ComputeEnergyPerKind)
{
    SystemConfig cfg = baseConfig();
    Executor ex(cfg);
    VpcSchedule s;
    VpcBatch add = compute(0, 1, 100);
    add.kind = VpcKind::Add;
    s.push(add);
    VpcBatch smul = compute(1, 1, 100);
    smul.kind = VpcKind::Smul;
    s.push(smul);
    ExecutionReport r = ex.run(s);
    EXPECT_EQ(r.energy.count(EnergyOp::PimAdd), 100u);
    EXPECT_EQ(r.energy.count(EnergyOp::PimMul), 100u);
}

TEST(Executor, VpcCountsReported)
{
    Executor ex(baseConfig());
    VpcSchedule s;
    s.push(compute(0, 7, 10));
    s.push(tran(0, 1, 3, 16));
    ExecutionReport r = ex.run(s);
    EXPECT_EQ(r.pimVpcs, 7u);
    EXPECT_EQ(r.moveVpcs, 3u);
    EXPECT_EQ(r.batches, 2u);
}

TEST(Executor, ReusableAcrossRuns)
{
    Executor ex(baseConfig());
    VpcSchedule s;
    s.push(compute(0, 1, 50));
    ExecutionReport r1 = ex.run(s);
    ExecutionReport r2 = ex.run(s);
    EXPECT_EQ(r1.makespan, r2.makespan);
    EXPECT_EQ(r1.energy.totalPj(), r2.energy.totalPj());
}

TEST(Executor, RunLengthScheduleMatchesExpandedCopy)
{
    // Executor::run works out a run's shared kind, tallies, host slot
    // and cost once per descriptor. A copy with one descriptor per
    // logical batch walks the same batches one run at a time and
    // must give the same report, energy bit for bit.
    BertConfig bert;
    bert.layers = 1;
    bert.seqLen = 32;
    bert.hidden = 256;
    bert.heads = 4;
    bert.ffnDim = 1024;
    struct Case
    {
        const char *name;
        TaskGraph graph;
        OptLevel level;
    };
    const Case cases[] = {
        {"bert-1", makeBert(bert), OptLevel::Unblock},
        {"gemm-256", makePolybench(PolybenchKernel::Gemm, 256),
         OptLevel::Distribute},
    };
    for (const Case &c : cases) {
        SystemConfig cfg = SystemConfig::paperDefault();
        cfg.optLevel = c.level;
        const VpcSchedule runs = Planner(cfg).plan(c.graph);
        VpcSchedule flat;
        flat.batches = expandedBatches(runs);
        flat.opResultBatch = runs.opResultBatch;
        ASSERT_LT(runs.batches.size(), flat.batches.size())
            << c.name << ": the planner's schedule has no long runs";

        Executor ex(cfg);
        const ExecutionReport want = ex.run(flat);
        const ExecutionReport got = ex.run(runs);
        EXPECT_EQ(got.makespan, want.makespan) << c.name;
        EXPECT_EQ(got.energy.totalPj(), want.energy.totalPj()) << c.name;
        EXPECT_EQ(got.breakdown, want.breakdown) << c.name;
        EXPECT_TRUE(got == want) << c.name;
    }
}

TEST(Executor, HostLinkThrottlesVpcIssue)
{
    SystemConfig cfg = baseConfig();
    cfg.vpcIssueTicks = nsToTicks(1000.0); // absurdly slow link
    Executor slow(cfg);
    VpcSchedule s;
    s.push(compute(0, 1000, 1));
    Tick slow_time = slow.run(s).makespan;
    Executor fast(baseConfig());
    Tick fast_time = fast.run(s).makespan;
    EXPECT_GT(slow_time, fast_time);
}

TEST(Executor, WriteFaultFloorChargesRedeposits)
{
    // The timed model charges the closed-form expected re-deposit
    // overhead of the write-endurance floor: deterministic (never
    // sampled), visible in both time and energy.
    SystemConfig clean_cfg = baseConfig();
    SystemConfig worn_cfg = baseConfig();
    worn_cfg.rm.writeFaultP0 = 0.01;
    Executor clean(clean_cfg);
    Executor worn(worn_cfg);

    VpcSchedule s;
    s.push(tran(0, 1, 4, 256));
    ExecutionReport a = clean.run(s);
    ExecutionReport b = worn.run(s);

    EXPECT_EQ(a.energy.count(EnergyOp::Redeposit), 0u);
    // ceil(bytes * 8 tracks * p0 / (1 - p0)) re-driven pulses.
    const double expected =
        std::ceil(4 * 256 * 8 * 0.01 / (1.0 - 0.01));
    EXPECT_EQ(b.energy.count(EnergyOp::Redeposit),
              std::uint64_t(expected));
    EXPECT_GT(b.energy.energyPj(EnergyOp::Redeposit), 0.0);
    EXPECT_GT(b.makespan, a.makespan);

    // Deterministic: the same schedule charges the same overhead.
    Executor again(worn_cfg);
    ExecutionReport c = again.run(s);
    EXPECT_EQ(c.makespan, b.makespan);
    EXPECT_EQ(c.energy.count(EnergyOp::Redeposit),
              b.energy.count(EnergyOp::Redeposit));
}

TEST(Executor, ComputeChargesRedepositsOnResultWriteback)
{
    SystemConfig clean_cfg = baseConfig();
    SystemConfig worn_cfg = baseConfig();
    worn_cfg.rm.writeFaultP0 = 0.01;
    Executor clean(clean_cfg);
    Executor worn(worn_cfg);
    VpcSchedule s;
    s.push(compute(0, 8, 100));
    ExecutionReport a = clean.run(s);
    ExecutionReport b = worn.run(s);
    EXPECT_GT(b.energy.count(EnergyOp::Redeposit), 0u);
    EXPECT_GE(b.makespan, a.makespan);
}

/**
 * Peak-RSS (VmHWM) growth in MiB while an executor runs 2^24 logical
 * batches in three descriptors, each batch waiting on work at most
 * 64 batches back: 64 computes, then two long runs of transfers that
 * stream back and forth between two banks. A completion tick per
 * batch would grow the resident set by 128 MiB; the executor keeps
 * a window of them. ctest runs each test in its own process, so the
 * peak before the run is the small schedule's, and any state the
 * run grows, even transiently, raises the peak.
 */
double
longRunGrowthMib(const SystemConfig &cfg)
{
    constexpr std::uint32_t kHalf = 1u << 23;
    VpcSchedule s;
    VpcBatch seed = compute(2, 1, 64);
    seed.repeat = 64;
    seed.subarrayStep = 1;
    s.batches.push_back(seed);
    const std::uint32_t other_bank = cfg.rm.subarraysPerBank;
    VpcBatch there = tran(0, other_bank, 1, 64, /*dep=*/0);
    there.first = 64;
    there.repeat = kHalf - 64;
    there.depAStep = 1;
    s.batches.push_back(there);
    VpcBatch back = tran(other_bank, 0, 1, 64, /*dep=*/kHalf - 64);
    back.barrier = true;
    back.depB = kHalf - 32;
    back.first = kHalf;
    back.repeat = kHalf;
    back.depAStep = back.depBStep = 1;
    s.batches.push_back(back);
    EXPECT_EQ(s.batchCount(), std::uint64_t(2) * kHalf);
    EXPECT_EQ(s.maxDepDistance(), 64u);

    Executor ex(cfg);
    const double before = peakResidentMib();
    const ExecutionReport r = ex.run(s);
    const double growth = peakResidentMib() - before;
    EXPECT_EQ(r.batches, s.batchCount());
    EXPECT_EQ(r.pimVpcs, 64u);
    return growth;
}

TEST(ExecutorMemory, StateStaysFlatAcrossLongRuns)
{
    // Reads take as long as writes here, so both transfer ends
    // stream without gaps and the coverage union stays a few
    // intervals.
    SystemConfig cfg = baseConfig();
    cfg.rm.readNs = cfg.rm.writeNs;
    const double growth = longRunGrowthMib(cfg);
    EXPECT_LT(growth, 16.0) << "resident set grew " << growth << " MiB";
}

TEST(ExecutorMemory, StateStaysFlatAtDefaultLatencies)
{
    // Reads are faster than writes, so the source subarray idles
    // between transfers while the destination stays busy: each
    // closed source run lies inside the destination's open run and
    // must not become a coverage component of its own.
    const double growth = longRunGrowthMib(baseConfig());
    EXPECT_LT(growth, 16.0) << "resident set grew " << growth << " MiB";
}

TEST(ExecutorDeath, OutOfRangeSubarrayPanics)
{
    SystemConfig cfg = baseConfig();
    Executor ex(cfg);
    VpcSchedule s;
    s.push(compute(cfg.rm.totalSubarrays(), 1, 10));
    EXPECT_DEATH(ex.run(s), "out of range");
}

} // namespace
} // namespace streampim
