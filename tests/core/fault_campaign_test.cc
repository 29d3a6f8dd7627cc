/**
 * @file
 * End-to-end tests for the deterministic shift-fault campaign:
 * golden equivalence at p = 0, graceful degradation under heavy
 * fault rates, the non-Failed => bit-exact recovery invariant, and
 * byte-identical results regardless of sweep parallelism.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/fault_campaign.hh"
#include "parallel/sweep.hh"
#include "rm/energy.hh"

namespace streampim
{
namespace
{

TEST(FaultCampaign, ZeroPStepMatchesGoldenExactly)
{
    FaultCampaignConfig cfg;
    cfg.pStep = 0.0;
    auto res = runFaultCampaign(cfg);
    EXPECT_EQ(res.vpcs(), cfg.vpcs);
    EXPECT_EQ(res.clean, cfg.vpcs);
    EXPECT_EQ(res.corrected, 0u);
    EXPECT_EQ(res.retried, 0u);
    EXPECT_EQ(res.failed, 0u);
    EXPECT_EQ(res.stats.faultsInjected, 0u);
    for (const auto &v : res.perVpc) {
        EXPECT_EQ(v.status, FaultStatus::Clean);
        EXPECT_TRUE(v.bitExact);
    }
    EXPECT_TRUE(res.invariantHolds());
}

TEST(FaultCampaign, ModerateFaultsEveryVpcReportsAStatus)
{
    FaultCampaignConfig cfg;
    cfg.pStep = 1e-4;
    cfg.guardCoverage = 0.999;
    auto res = runFaultCampaign(cfg);
    EXPECT_EQ(res.clean + res.corrected + res.retried + res.failed,
              cfg.vpcs);
    EXPECT_GT(res.stats.faultsInjected, 0u);
    EXPECT_TRUE(res.invariantHolds());
}

TEST(FaultCampaign, RecoveredVpcsAreBitExact)
{
    // Sweep several seeds at a rate that produces a healthy mix of
    // Corrected/Retried outcomes; the invariant must hold in every
    // single run, not on average.
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        FaultCampaignConfig cfg;
        cfg.pStep = 1e-3;
        cfg.guardCoverage = 0.99;
        cfg.seed = seed;
        auto res = runFaultCampaign(cfg);
        EXPECT_TRUE(res.invariantHolds())
            << "seed " << seed << ": " << res.mismatchedRecovered
            << " recovered VPC(s) mismatched golden";
        EXPECT_GT(res.corrected + res.retried + res.failed, 0u)
            << "seed " << seed;
    }
}

TEST(FaultCampaign, HeavyFaultsDegradeGracefully)
{
    // Aggressive rate + poor coverage: recoveries must still be
    // bit-exact and failures visible, and the run must complete
    // without aborting.
    FaultCampaignConfig cfg;
    cfg.pStep = 1e-2;
    cfg.guardCoverage = 0.5;
    cfg.seed = 77;
    auto res = runFaultCampaign(cfg);
    EXPECT_EQ(res.clean + res.corrected + res.retried + res.failed,
              cfg.vpcs);
    EXPECT_GT(res.failed, 0u);
    EXPECT_TRUE(res.invariantHolds());
    EXPECT_GT(res.stats.uncorrectable + res.stats.budgetExhausted,
              0u);
}

TEST(FaultCampaign, SameConfigSameResult)
{
    FaultCampaignConfig cfg;
    cfg.pStep = 1e-3;
    cfg.guardCoverage = 0.99;
    cfg.seed = 1234;
    auto a = runFaultCampaign(cfg);
    auto b = runFaultCampaign(cfg);
    ASSERT_EQ(a.vpcs(), b.vpcs());
    EXPECT_EQ(a.stats.faultsInjected, b.stats.faultsInjected);
    EXPECT_EQ(a.stats.correctionShifts, b.stats.correctionShifts);
    EXPECT_EQ(a.stats.guardChecks, b.stats.guardChecks);
    for (unsigned i = 0; i < a.vpcs(); ++i) {
        EXPECT_EQ(a.perVpc[i].status, b.perVpc[i].status) << i;
        EXPECT_EQ(a.perVpc[i].bitExact, b.perVpc[i].bitExact) << i;
    }
}

TEST(FaultCampaign, FaultInjectionChargesGuardSenseEnergy)
{
    RmParams params = smallFunctionalParams();
    params.shiftFaultPStep = 1e-3;
    StreamPimSystem sys(params);
    FaultConfig fc;
    fc.pStep = 1e-3;
    fc.seed = 5;
    sys.enableFaultInjection(fc);

    Vpc v;
    v.kind = VpcKind::Add;
    v.src1 = 0;
    v.src2 = 256;
    v.dst = 4096;
    v.size = 48;
    ASSERT_TRUE(sys.submit(v));
    auto recs = sys.processQueue();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_NE(recs[0].fault.status, FaultStatus::Failed);
    EXPECT_GT(recs[0].fault.guardChecks, 0u);

    EnergyMeter energy = sys.totalEnergy();
    EXPECT_GT(energy.count(EnergyOp::GuardSense), 0u);
    EXPECT_GT(energy.energyPj(EnergyOp::GuardSense), 0.0);
}

/** Build the same small campaign grid the bench sweeps. */
SweepRunner
campaignGrid()
{
    SweepRunner sweep("campaign_determinism");
    for (unsigned seg : {64u, 128u})
        for (double p : {1e-4, 1e-3}) {
            FaultCampaignConfig cfg;
            cfg.busSegmentSize = seg;
            cfg.pStep = p;
            cfg.vpcs = 8;
            cfg.seed = 0xC0FFEE ^ (seg * 31) ^
                       std::uint64_t(p * 1e6);
            sweep.add("seg" + std::to_string(seg),
                      "p" + std::to_string(p), [cfg] {
                          auto res = runFaultCampaign(cfg);
                          SweepCellResult cell;
                          cell.value = double(res.failed);
                          cell.metrics["clean"] = res.clean;
                          cell.metrics["corrected"] = res.corrected;
                          cell.metrics["retried"] = res.retried;
                          cell.metrics["faults_injected"] =
                              double(res.stats.faultsInjected);
                          cell.metrics["correction_shifts"] =
                              double(res.stats.correctionShifts);
                          cell.metrics["mismatched_recovered"] =
                              res.mismatchedRecovered;
                          return cell;
                      });
        }
    return sweep;
}

TEST(FaultCampaign, ResultsIdenticalAcrossSweepJobCounts)
{
    // The same grid under STREAMPIM_JOBS=1 and =4 must produce
    // byte-identical campaign results: every cell owns its systems
    // and injectors, so parallelism cannot leak into sampling.
    setenv("STREAMPIM_JOBS", "1", 1);
    SweepRunner serial = campaignGrid();
    ASSERT_EQ(serial.jobs(), 1u);
    serial.run();

    setenv("STREAMPIM_JOBS", "4", 1);
    SweepRunner parallel = campaignGrid();
    ASSERT_EQ(parallel.jobs(), 4u);
    parallel.run();
    unsetenv("STREAMPIM_JOBS");

    for (const auto &row : serial.rows())
        for (const auto &col : serial.cols()) {
            EXPECT_DOUBLE_EQ(serial.value(row, col),
                             parallel.value(row, col))
                << row << "/" << col;
            const auto &sm = serial.cell(row, col).metrics;
            const auto &pm = parallel.cell(row, col).metrics;
            ASSERT_EQ(sm.size(), pm.size());
            for (const auto &[key, val] : sm) {
                auto it = pm.find(key);
                ASSERT_NE(it, pm.end()) << key;
                EXPECT_DOUBLE_EQ(val, it->second)
                    << row << "/" << col << "/" << key;
            }
        }

    // Also byte-identical per-VPC details for one repeated cell.
    FaultCampaignConfig cfg;
    cfg.pStep = 1e-3;
    cfg.vpcs = 8;
    auto a = runFaultCampaign(cfg);
    auto b = runFaultCampaign(cfg);
    for (unsigned i = 0; i < a.vpcs(); ++i)
        EXPECT_EQ(a.perVpc[i].status, b.perVpc[i].status);
}

TEST(FaultCampaign, IsTheOneRoundEnduranceCampaign)
{
    // runFaultCampaign is the endurance protocol's one-round case
    // (recovery ladder and health policy off): every tally field,
    // the sampled statistics and the final bank health agree across
    // a grid of shift x write fault rates and seeds.
    std::vector<EnduranceCampaignConfig> grid;
    for (double p_step : {0.0, 1e-4, 1e-3})
        for (double p_write0 : {0.0, 1e-3})
            for (std::uint64_t seed : {1u, 0x5eedu}) {
                EnduranceCampaignConfig one;
                one.base.pStep = p_step;
                one.base.pWrite0 = p_write0;
                one.base.writeEndurance = 400.0;
                one.base.seed = seed;
                one.rounds = 1;
                grid.push_back(one);
            }

    for (const EnduranceCampaignConfig &one : grid) {
        SCOPED_TRACE(testing::Message()
                     << "pStep=" << one.base.pStep
                     << " pWrite0=" << one.base.pWrite0
                     << " seed=" << one.base.seed);
        const FaultCampaignResult f = runFaultCampaign(one.base);
        const EnduranceCampaignResult e = runEnduranceCampaign(one);

        EXPECT_EQ(f.clean, e.clean);
        EXPECT_EQ(f.corrected, e.corrected);
        EXPECT_EQ(f.retried, e.retried);
        EXPECT_EQ(f.failed, e.failed);
        EXPECT_EQ(f.recovered, e.recovered);
        EXPECT_EQ(f.unrecoverable, e.unrecoverable);
        EXPECT_EQ(f.mismatchedRecovered, e.mismatchedRecovered);
        EXPECT_EQ(f.failedButIntact, e.failedButIntact);
        EXPECT_EQ(f.vpcs(), one.base.vpcs);

        EXPECT_EQ(f.stats.pulses, e.stats.pulses);
        EXPECT_EQ(f.stats.faultsInjected, e.stats.faultsInjected);
        EXPECT_EQ(f.stats.guardChecks, e.stats.guardChecks);
        EXPECT_EQ(f.stats.correctionShifts, e.stats.correctionShifts);
        EXPECT_EQ(f.stats.depositPulses, e.stats.depositPulses);
        EXPECT_EQ(f.stats.writeFaultsInjected,
                  e.stats.writeFaultsInjected);
        EXPECT_EQ(f.stats.redeposits, e.stats.redeposits);
        EXPECT_EQ(f.stats.trackRemaps, e.stats.trackRemaps);
        EXPECT_EQ(f.stats.writeFailures, e.stats.writeFailures);

        ASSERT_EQ(f.health.size(), e.health.size());
        for (std::size_t b = 0; b < f.health.size(); ++b) {
            const BankHealth &x = f.health[b];
            const BankHealth &y = e.health[b];
            EXPECT_EQ(x.deposits, y.deposits) << "bank " << b;
            EXPECT_EQ(x.maxWear, y.maxWear) << "bank " << b;
            EXPECT_EQ(x.trackRemaps, y.trackRemaps) << "bank " << b;
            EXPECT_EQ(x.sparesUsed, y.sparesUsed) << "bank " << b;
            EXPECT_EQ(x.redeposits, y.redeposits) << "bank " << b;
            EXPECT_EQ(x.writeFailures, y.writeFailures)
                << "bank " << b;
        }

        // The per-VPC details recount to the same tally.
        unsigned failed = 0, intact = 0;
        for (const FaultCampaignVpc &v : f.perVpc) {
            failed += v.status == FaultStatus::Failed;
            intact += v.status == FaultStatus::Failed && v.bitExact;
        }
        EXPECT_EQ(failed, f.failed);
        EXPECT_EQ(intact, f.failedButIntact);
    }
}

TEST(FaultCampaignDeath, BadCampaignInputIsFatal)
{
    // Caller input errors exit through fatal() (status 1), not a
    // panic abort.
    FaultCampaignConfig cfg;
    cfg.vpcs = 0;
    EXPECT_EXIT(runFaultCampaign(cfg), testing::ExitedWithCode(1),
                "program size");
    cfg = FaultCampaignConfig{};
    cfg.vectorLen = 49;
    EXPECT_EXIT(runFaultCampaign(cfg), testing::ExitedWithCode(1),
                "destination slice");
    EnduranceCampaignConfig endurance;
    endurance.rounds = 513;
    EXPECT_EXIT(runEnduranceCampaign(endurance),
                testing::ExitedWithCode(1), "rounds out of range");
}

TEST(FaultCampaignDeath, RejectsOversizedPrograms)
{
    FaultCampaignConfig cfg;
    cfg.vpcs = 1000;
    EXPECT_DEATH(runFaultCampaign(cfg), "program size");
    cfg = FaultCampaignConfig{};
    cfg.vectorLen = 64;
    EXPECT_DEATH(runFaultCampaign(cfg), "destination slice");
}

} // namespace
} // namespace streampim
