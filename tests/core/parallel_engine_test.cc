/**
 * @file
 * Byte-identity tests for the dependency-aware parallel functional
 * VPC engine: records, fault statistics, wear summaries, memory
 * images and whole campaign trajectories must be identical at any
 * job count — the engine's headline invariant (DESIGN.md §6).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "core/fault_campaign.hh"
#include "core/stream_pim.hh"
#include "parallel/thread_pool.hh"
#include "runtime/conflict_graph.hh"

namespace streampim
{
namespace
{

void
expectFaultInfoEq(const VpcFaultInfo &a, const VpcFaultInfo &b,
                  std::size_t i)
{
    EXPECT_EQ(a.status, b.status) << "vpc " << i;
    EXPECT_EQ(a.faultsInjected, b.faultsInjected) << "vpc " << i;
    EXPECT_EQ(a.faultsCorrected, b.faultsCorrected) << "vpc " << i;
    EXPECT_EQ(a.correctionShifts, b.correctionShifts)
        << "vpc " << i;
    EXPECT_EQ(a.realignRetries, b.realignRetries) << "vpc " << i;
    EXPECT_EQ(a.guardChecks, b.guardChecks) << "vpc " << i;
    EXPECT_EQ(a.depositPulses, b.depositPulses) << "vpc " << i;
    EXPECT_EQ(a.writeFaultsInjected, b.writeFaultsInjected)
        << "vpc " << i;
    EXPECT_EQ(a.redeposits, b.redeposits) << "vpc " << i;
    EXPECT_EQ(a.trackRemaps, b.trackRemaps) << "vpc " << i;
}

void
expectStatsEq(const FaultStats &a, const FaultStats &b)
{
    EXPECT_EQ(a.pulses, b.pulses);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.overShifts, b.overShifts);
    EXPECT_EQ(a.underShifts, b.underShifts);
    EXPECT_EQ(a.guardChecks, b.guardChecks);
    EXPECT_EQ(a.checksMissed, b.checksMissed);
    EXPECT_EQ(a.correctionShifts, b.correctionShifts);
    EXPECT_EQ(a.realignRetries, b.realignRetries);
    EXPECT_EQ(a.uncorrectable, b.uncorrectable);
    EXPECT_EQ(a.budgetExhausted, b.budgetExhausted);
    EXPECT_EQ(a.clampedAtWireEnd, b.clampedAtWireEnd);
    EXPECT_EQ(a.depositPulses, b.depositPulses);
    EXPECT_EQ(a.writeFaultsInjected, b.writeFaultsInjected);
    EXPECT_EQ(a.redeposits, b.redeposits);
    EXPECT_EQ(a.redepositExhausted, b.redepositExhausted);
    EXPECT_EQ(a.trackRemaps, b.trackRemaps);
    EXPECT_EQ(a.remapCopyBytes, b.remapCopyBytes);
    EXPECT_EQ(a.writeFailures, b.writeFailures);
}

void
expectWearEq(const std::vector<SubarrayWear> &a,
             const std::vector<SubarrayWear> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].deposits, b[i].deposits) << "subarray " << i;
        EXPECT_EQ(a[i].maxTrackWear, b[i].maxTrackWear)
            << "subarray " << i;
        EXPECT_EQ(a[i].remaps, b[i].remaps) << "subarray " << i;
        EXPECT_EQ(a[i].sparesUsed, b[i].sparesUsed)
            << "subarray " << i;
        EXPECT_EQ(a[i].sparesTotal, b[i].sparesTotal)
            << "subarray " << i;
    }
}

void
expectHealthEq(const std::vector<BankHealth> &a,
               const std::vector<BankHealth> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].bank, b[i].bank);
        EXPECT_EQ(a[i].deposits, b[i].deposits) << "bank " << i;
        EXPECT_EQ(a[i].maxWear, b[i].maxWear) << "bank " << i;
        EXPECT_EQ(a[i].trackRemaps, b[i].trackRemaps)
            << "bank " << i;
        EXPECT_EQ(a[i].sparesUsed, b[i].sparesUsed)
            << "bank " << i;
        EXPECT_EQ(a[i].sparesTotal, b[i].sparesTotal)
            << "bank " << i;
        EXPECT_EQ(a[i].redeposits, b[i].redeposits)
            << "bank " << i;
        EXPECT_EQ(a[i].writeFailures, b[i].writeFailures)
            << "bank " << i;
    }
}

/**
 * A program spanning all four subarrays of the small geometry:
 * local and remote operands, remote destinations, TRANs between
 * subarrays, and one TRAN whose source and destination ranges each
 * straddle a subarray boundary — the hardest case for the conflict
 * graph's touch masks.
 */
std::vector<Vpc>
buildProgram(std::uint64_t per)
{
    std::vector<Vpc> prog;
    for (unsigned i = 0; i < 24; ++i) {
        const unsigned sub = i % 4;
        const std::uint64_t base = per * sub;
        Vpc v;
        v.kind = static_cast<VpcKind>(i % 4);
        v.size = 16;
        v.src1 = base + (std::uint64_t(i) * 37) % 1024;
        // Every third VPC collects src2 from the next subarray.
        v.src2 = (i % 3 == 2 ? per * ((sub + 1) % 4) : base) +
                 2048 + std::uint64_t(i) * 16;
        // Every fifth VPC stores out to a remote subarray.
        v.dst = (i % 5 == 4 ? per * ((sub + 2) % 4) : base) + 4096 +
                std::uint64_t(i) * 64;
        prog.push_back(v);
    }
    // Boundary-straddling TRAN: source crosses 0->1, destination
    // crosses 2->3.
    prog.push_back({VpcKind::Tran, per - 8, 0, 3 * per - 8, 16});
    return prog;
}

/** A local VPC on subarray @p sub: operands and result stay in it,
 * so its touch mask is that subarray alone. */
Vpc
localVpc(unsigned sub, unsigned i, std::uint64_t per)
{
    const std::uint64_t base = per * sub;
    Vpc v;
    v.kind = static_cast<VpcKind>(i % 4);
    v.size = 16;
    v.src1 = base + (std::uint64_t(i) * 37) % 1024;
    v.src2 = base + 2048 + std::uint64_t(i) * 16;
    v.dst = base + 4096 + std::uint64_t(i) * 64;
    return v;
}

/** A TRAN from subarray @p from to subarray @p to. */
Vpc
tranVpc(unsigned from, unsigned to, unsigned i, std::uint64_t per)
{
    return {VpcKind::Tran, per * from + 512 + std::uint64_t(i) * 16,
            0, per * to + 8192 + std::uint64_t(i) * 16, 16};
}

/** Round shapes the engine's continuation rule must handle. @{ */

/** One same-subarray chain: one root, every task one successor. */
std::vector<Vpc>
chainProgram(std::uint64_t per)
{
    std::vector<Vpc> prog;
    for (unsigned i = 0; i < 24; ++i)
        prog.push_back(localVpc(0, i, per));
    return prog;
}

/** A root TRAN whose source straddles subarrays 0|1 and whose
 * destination straddles 2|3 unblocks one chain on each of the four
 * subarrays. */
std::vector<Vpc>
fanOutProgram(std::uint64_t per)
{
    std::vector<Vpc> prog = {{VpcKind::Tran, per - 8, 0, 3 * per - 8,
                              16}};
    for (unsigned i = 0; i < 24; ++i)
        prog.push_back(localVpc(i % 4, i, per));
    return prog;
}

/** Diamonds: work on subarrays 0 and 1 joins in a TRAN between
 * them, which then releases both subarrays again. */
std::vector<Vpc>
diamondProgram(std::uint64_t per)
{
    std::vector<Vpc> prog;
    for (unsigned i = 0; i < 6; ++i) {
        prog.push_back(localVpc(0, 2 * i, per));
        prog.push_back(localVpc(1, 2 * i + 1, per));
        prog.push_back(tranVpc(i % 2, (i + 1) % 2, i, per));
    }
    return prog;
}

/** Four independent chains, one per subarray, interleaved. */
std::vector<Vpc>
rootsProgram(std::uint64_t per)
{
    std::vector<Vpc> prog;
    for (unsigned i = 0; i < 24; ++i)
        prog.push_back(localVpc(i % 4, i, per));
    return prog;
}
/** @} */

/** The conflict graph of a shape program. Its non-TRAN VPCs are
 * local, so their masks are their src1 subarray; a TRAN's mask is
 * both of its ranges. */
ConflictGraph
shapeGraph(const std::vector<Vpc> &prog, std::uint64_t per)
{
    auto bits = [per](Addr addr, std::uint64_t len) {
        std::uint64_t m = 0;
        for (Addr s = addr / per; s <= (addr + len - 1) / per; ++s)
            m |= std::uint64_t(1) << s;
        return m;
    };
    std::vector<std::uint64_t> masks;
    for (const Vpc &v : prog)
        masks.push_back(v.kind == VpcKind::Tran
                            ? bits(v.src1, v.size) | bits(v.dst, v.size)
                            : bits(v.src1, 1));
    return ConflictGraph(masks);
}

using ProgramFn = std::vector<Vpc> (*)(std::uint64_t per);

struct RunResult
{
    std::vector<VpcExecutionRecord> records;
    FaultStats stats;
    std::vector<SubarrayWear> wear;
    std::vector<BankHealth> health;
    std::vector<std::uint8_t> memory;
    std::uint64_t responses = 0;
};

/** Full run of @p program with shift faults, write faults AND
 * endurance wear enabled. */
RunResult
runProgram(ProgramFn program, unsigned jobs, unsigned rounds = 3)
{
    StreamPimSystem sys;
    const std::uint64_t per = sys.params().bytesPerSubarray();

    Rng rng(777);
    for (unsigned sub = 0; sub < 4; ++sub) {
        std::vector<std::uint8_t> blob(4096);
        for (auto &b : blob)
            b = std::uint8_t(rng.below(256));
        sys.write(per * sub, blob);
    }

    FaultConfig fc;
    fc.pStep = 2e-4;
    fc.guardCoverage = 0.9;
    fc.pWrite0 = 5e-3;
    fc.writeEndurance = 300.0;
    fc.weibullShape = 3.0;
    fc.seed = 99;
    sys.enableFaultInjection(fc);

    const auto prog = program(per);
    RunResult out;
    for (unsigned r = 0; r < rounds; ++r) {
        for (const Vpc &v : prog)
            EXPECT_TRUE(sys.submit(v));
        auto recs = sys.processQueue(jobs);
        out.records.insert(out.records.end(), recs.begin(),
                           recs.end());
    }
    sys.disableFaultInjection();

    out.stats = sys.totalFaultStats();
    out.wear = sys.wearSummaries();
    out.health = sys.bankHealth();
    out.memory = sys.read(0, sys.capacityBytes());
    out.responses = sys.responses();
    return out;
}

RunResult
runOnce(unsigned jobs, unsigned rounds = 3)
{
    return runProgram(buildProgram, jobs, rounds);
}

void
expectRunsEqual(const RunResult &a, const RunResult &b)
{
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const VpcExecutionRecord &ra = a.records[i];
        const VpcExecutionRecord &rb = b.records[i];
        EXPECT_EQ(ra.vpc.kind, rb.vpc.kind) << "vpc " << i;
        EXPECT_EQ(ra.vpc.src1, rb.vpc.src1) << "vpc " << i;
        EXPECT_EQ(ra.vpc.src2, rb.vpc.src2) << "vpc " << i;
        EXPECT_EQ(ra.vpc.dst, rb.vpc.dst) << "vpc " << i;
        EXPECT_EQ(ra.commands.size(), rb.commands.size())
            << "vpc " << i;
        EXPECT_EQ(ra.busCycles, rb.busCycles) << "vpc " << i;
        EXPECT_EQ(ra.pipelineCycles, rb.pipelineCycles)
            << "vpc " << i;
        EXPECT_EQ(ra.remoteOperands, rb.remoteOperands)
            << "vpc " << i;
        expectFaultInfoEq(ra.fault, rb.fault, i);
    }
    expectStatsEq(a.stats, b.stats);
    expectWearEq(a.wear, b.wear);
    expectHealthEq(a.health, b.health);
    EXPECT_EQ(a.memory, b.memory);
    EXPECT_EQ(a.responses, b.responses);
}

TEST(ParallelEngine, ByteIdenticalAcrossJobCounts)
{
    const RunResult serial = runOnce(1);
    // The run actually exercised the fault/wear machinery.
    EXPECT_GT(serial.stats.pulses, 0u);
    EXPECT_GT(serial.stats.depositPulses, 0u);
    for (unsigned jobs : {2u, 8u}) {
        const RunResult parallel = runOnce(jobs);
        expectRunsEqual(serial, parallel);
    }
}

/** The shape's run at jobs 2, 4 and 8 matches its jobs-1 run. */
void
expectShapeIdenticalAcrossJobs(ProgramFn program)
{
    const RunResult serial = runProgram(program, 1);
    EXPECT_GT(serial.stats.pulses, 0u);
    EXPECT_GT(serial.stats.depositPulses, 0u);
    for (unsigned jobs : {2u, 4u, 8u}) {
        SCOPED_TRACE(testing::Message() << "jobs " << jobs);
        expectRunsEqual(serial, runProgram(program, jobs));
    }
}

TEST(ParallelEngine, ChainRoundIdenticalAcrossJobCounts)
{
    const std::uint64_t per = smallFunctionalParams().bytesPerSubarray();
    const auto prog = chainProgram(per);
    const ConflictGraph g = shapeGraph(prog, per);
    ASSERT_EQ(g.roots().size(), 1u);
    ASSERT_EQ(g.edges(), prog.size() - 1);
    for (std::size_t i = 0; i + 1 < prog.size(); ++i)
        ASSERT_EQ(g.successors(i).size(), 1u) << "vpc " << i;
    expectShapeIdenticalAcrossJobs(chainProgram);
}

TEST(ParallelEngine, FanOutRoundIdenticalAcrossJobCounts)
{
    const std::uint64_t per = smallFunctionalParams().bytesPerSubarray();
    const ConflictGraph g = shapeGraph(fanOutProgram(per), per);
    ASSERT_EQ(g.roots(), (std::vector<std::uint32_t>{0}));
    ASSERT_EQ(g.successors(0).size(), 4u);
    expectShapeIdenticalAcrossJobs(fanOutProgram);
}

TEST(ParallelEngine, DiamondRoundIdenticalAcrossJobCounts)
{
    const std::uint64_t per = smallFunctionalParams().bytesPerSubarray();
    const auto prog = diamondProgram(per);
    const ConflictGraph g = shapeGraph(prog, per);
    ASSERT_EQ(g.roots().size(), 2u);
    // Every TRAN joins both subarrays; all but the last release both.
    for (std::size_t t = 2; t < prog.size(); t += 3) {
        ASSERT_EQ(g.predecessors(t), 2u) << "tran " << t;
        if (t + 1 < prog.size()) {
            ASSERT_EQ(g.successors(t).size(), 2u) << "tran " << t;
        }
    }
    expectShapeIdenticalAcrossJobs(diamondProgram);
}

TEST(ParallelEngine, ManyRootsRoundIdenticalAcrossJobCounts)
{
    const std::uint64_t per = smallFunctionalParams().bytesPerSubarray();
    const auto prog = rootsProgram(per);
    const ConflictGraph g = shapeGraph(prog, per);
    ASSERT_EQ(g.roots(), (std::vector<std::uint32_t>{0, 1, 2, 3}));
    ASSERT_EQ(g.edges(), prog.size() - 4);
    expectShapeIdenticalAcrossJobs(rootsProgram);
}

TEST(ParallelEngine, RecordsComeBackInSubmitOrder)
{
    StreamPimSystem sys;
    const std::uint64_t per = sys.params().bytesPerSubarray();
    const auto prog = buildProgram(per);
    for (const Vpc &v : prog)
        ASSERT_TRUE(sys.submit(v));
    auto recs = sys.processQueue(8);
    ASSERT_EQ(recs.size(), prog.size());
    for (std::size_t i = 0; i < prog.size(); ++i) {
        EXPECT_EQ(recs[i].vpc.kind, prog[i].kind) << "vpc " << i;
        EXPECT_EQ(recs[i].vpc.src1, prog[i].src1) << "vpc " << i;
        EXPECT_EQ(recs[i].vpc.dst, prog[i].dst) << "vpc " << i;
    }
    EXPECT_EQ(sys.responses(), prog.size());
}

TEST(ParallelEngine, MatchesShadowSimulationAtEightJobs)
{
    // The parallel engine computes the same values a host-side
    // shadow simulation predicts (fault-free run).
    StreamPimSystem sys;
    const std::uint64_t per = sys.params().bytesPerSubarray();
    Rng rng(4242);
    std::vector<std::uint8_t> shadow(per * 4, 0);
    for (std::uint64_t i = 0; i < 4096; ++i)
        shadow[i] = std::uint8_t(rng.below(256));
    sys.write(0, std::span<const std::uint8_t>(shadow.data(),
                                               4096));

    std::vector<Vpc> prog;
    for (unsigned i = 0; i < 12; ++i) {
        Vpc v;
        v.kind = i % 2 == 0 ? VpcKind::Add : VpcKind::Tran;
        v.size = 8;
        v.src1 = (std::uint64_t(i) * 53) % 1024;
        v.src2 = 1024 + (std::uint64_t(i) * 97) % 1024;
        // Disjoint destinations across subarrays 0..3.
        v.dst = per * (i % 4) + 8192 + (i / 4) * 64;
        prog.push_back(v);
        if (v.kind == VpcKind::Add)
            for (std::uint32_t k = 0; k < v.size; ++k)
                shadow[v.dst + k] = std::uint8_t(
                    shadow[v.src1 + k] + shadow[v.src2 + k]);
        else
            for (std::uint32_t k = 0; k < v.size; ++k)
                shadow[v.dst + k] = shadow[v.src1 + k];
    }
    for (const Vpc &v : prog)
        ASSERT_TRUE(sys.submit(v));
    sys.processQueue(8);
    // Compare everything except the last 64 bytes of each subarray
    // (the staging scratch region remote store-outs pass through,
    // which the shadow does not model).
    for (unsigned sub = 0; sub < 4; ++sub) {
        auto got = sys.read(per * sub, per - 64);
        const std::vector<std::uint8_t> want(
            shadow.begin() + long(per * sub),
            shadow.begin() + long(per * sub + per - 64));
        EXPECT_EQ(got, want) << "subarray " << sub;
    }
}

TEST(ParallelEngine, FaultCampaignIdenticalAcrossEngineJobs)
{
    FaultCampaignConfig cfg;
    cfg.pStep = 1e-3;
    cfg.guardCoverage = 0.9;
    cfg.pWrite0 = 1e-4;
    cfg.writeEndurance = 600.0;
    cfg.vpcs = 24;
    cfg.engineJobs = 1;
    const auto a = runFaultCampaign(cfg);
    EXPECT_TRUE(a.invariantHolds());
    cfg.engineJobs = 8;
    const auto b = runFaultCampaign(cfg);
    EXPECT_EQ(a.clean, b.clean);
    EXPECT_EQ(a.corrected, b.corrected);
    EXPECT_EQ(a.retried, b.retried);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.mismatchedRecovered, b.mismatchedRecovered);
    EXPECT_EQ(a.failedButIntact, b.failedButIntact);
    expectStatsEq(a.stats, b.stats);
    ASSERT_EQ(a.perVpc.size(), b.perVpc.size());
    for (std::size_t i = 0; i < a.perVpc.size(); ++i) {
        EXPECT_EQ(a.perVpc[i].status, b.perVpc[i].status)
            << "vpc " << i;
        EXPECT_EQ(a.perVpc[i].bitExact, b.perVpc[i].bitExact)
            << "vpc " << i;
        expectFaultInfoEq(a.perVpc[i].fault, b.perVpc[i].fault, i);
    }
}

TEST(ParallelEngine, EnduranceTrajectoryIdenticalAcrossEngineJobs)
{
    EnduranceCampaignConfig cfg;
    cfg.base.pStep = 0.0;
    cfg.base.pWrite0 = 1e-3;
    cfg.base.writeEndurance = 400.0;
    cfg.base.weibullShape = 6.0;
    cfg.base.spareTracks = 2;
    cfg.rounds = 6;
    cfg.base.engineJobs = 1;
    const auto a = runEnduranceCampaign(cfg);
    EXPECT_TRUE(a.invariantHolds());
    cfg.base.engineJobs = 8;
    const auto b = runEnduranceCampaign(cfg);
    EXPECT_EQ(a.clean, b.clean);
    EXPECT_EQ(a.corrected, b.corrected);
    EXPECT_EQ(a.retried, b.retried);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.mismatchedRecovered, b.mismatchedRecovered);
    EXPECT_EQ(a.firstFailedVpc, b.firstFailedVpc);
    EXPECT_EQ(a.firstFailedRound, b.firstFailedRound);
    EXPECT_EQ(a.firstFailedDeposits, b.firstFailedDeposits);
    expectStatsEq(a.stats, b.stats);
    expectWearEq(a.wear, b.wear);
    expectHealthEq(a.health, b.health);
    ASSERT_EQ(a.perRound.size(), b.perRound.size());
    for (std::size_t r = 0; r < a.perRound.size(); ++r) {
        EXPECT_EQ(a.perRound[r].failed, b.perRound[r].failed)
            << "round " << r;
        EXPECT_EQ(a.perRound[r].remaps, b.perRound[r].remaps)
            << "round " << r;
        EXPECT_EQ(a.perRound[r].redeposits,
                  b.perRound[r].redeposits)
            << "round " << r;
        EXPECT_EQ(a.perRound[r].depositPulses,
                  b.perRound[r].depositPulses)
            << "round " << r;
    }
}

TEST(ParallelEngine, SerialSectionForcesInlineExecution)
{
    // Inside a SerialSection, processQueue(0) must not spawn
    // workers — and still produce the same bytes.
    const RunResult reference = runOnce(1, 1);
    ThreadPool::SerialSection serial;
    const RunResult inline_run = runOnce(0, 1);
    expectRunsEqual(reference, inline_run);
}

} // namespace
} // namespace streampim
