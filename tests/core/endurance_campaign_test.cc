/**
 * @file
 * End-to-end tests for the endurance (lifetime) campaign: wear
 * accumulates across rounds on one persistent system pair, the
 * non-Failed => bit-exact invariant holds through re-deposit retries
 * and spare-track remaps, spares strictly extend lifetime, and the
 * whole campaign is byte-identical regardless of sweep parallelism.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/fault_campaign.hh"
#include "parallel/sweep.hh"

namespace streampim
{
namespace
{

/** Wear-out operating point that fails within a few dozen rounds. */
EnduranceCampaignConfig
wearOutConfig(unsigned spare_tracks, unsigned rounds = 24)
{
    EnduranceCampaignConfig cfg;
    cfg.base.pStep = 0.0; // endurance-driven failures only
    cfg.base.pWrite0 = 1e-4;
    cfg.base.writeEndurance = 500.0;
    cfg.base.weibullShape = 6.0;
    cfg.base.redepositRetryBudget = 3;
    cfg.base.remapAfterExhaustions = 1;
    cfg.base.spareTracks = spare_tracks;
    cfg.rounds = rounds;
    return cfg;
}

TEST(EnduranceCampaign, NoWriteFaultsMeansEveryRoundClean)
{
    EnduranceCampaignConfig cfg;
    cfg.base.pStep = 0.0;
    cfg.base.pWrite0 = 0.0;
    cfg.rounds = 3;
    auto res = runEnduranceCampaign(cfg);
    EXPECT_EQ(res.rounds(), 3u);
    EXPECT_EQ(res.clean, 3 * cfg.base.vpcs);
    EXPECT_EQ(res.failed, 0u);
    EXPECT_EQ(res.firstFailedVpc, -1);
    EXPECT_EQ(res.stats.writeFaultsInjected, 0u);
    EXPECT_TRUE(res.invariantHolds());
    // Wear still accumulates: deposits are physical, not sampled.
    std::uint64_t deposits = 0;
    for (const SubarrayWear &w : res.wear)
        deposits += w.deposits;
    EXPECT_GT(deposits, 0u);
}

TEST(EnduranceCampaign, WearOutFailsLateNotEarly)
{
    EnduranceCampaignConfig cfg = wearOutConfig(0);
    auto res = runEnduranceCampaign(cfg);
    ASSERT_GT(res.failed, 0u)
        << "operating point never wore out — retune the test";
    EXPECT_TRUE(res.invariantHolds());
    // Early rounds ride the p0 floor; failures need accumulated
    // wear, so the first Failed VPC cannot be in round 0.
    EXPECT_GT(res.firstFailedRound, 0);
    EXPECT_GT(res.firstFailedDeposits, 0u);
    EXPECT_GE(res.firstFailedVpc,
              long(res.firstFailedRound) * long(cfg.base.vpcs));
    // Per-round failure counts sum to the total.
    unsigned failed = 0;
    for (const EnduranceRound &r : res.perRound)
        failed += r.failed;
    EXPECT_EQ(failed, res.failed);
}

TEST(EnduranceCampaign, SparesStrictlyExtendLifetime)
{
    auto none = runEnduranceCampaign(wearOutConfig(0));
    auto spared = runEnduranceCampaign(wearOutConfig(4));
    ASSERT_GT(none.failed, 0u);
    EXPECT_TRUE(none.invariantHolds());
    EXPECT_TRUE(spared.invariantHolds());
    EXPECT_GT(spared.stats.trackRemaps, 0u);
    // The spared device either survives the whole campaign or dies
    // after strictly more committed deposit pulses.
    if (spared.firstFailedVpc >= 0) {
        EXPECT_GT(spared.firstFailedDeposits,
                  none.firstFailedDeposits);
    }
    unsigned spares_used = 0;
    for (const SubarrayWear &w : spared.wear)
        spares_used += w.sparesUsed;
    EXPECT_GT(spares_used, 0u);
}

TEST(EnduranceCampaign, RecoveredVpcsAreBitExactAcrossRemaps)
{
    // Several seeds; the invariant must hold in every run even while
    // tracks are being retired mid-program.
    for (std::uint64_t seed : {21u, 22u, 23u}) {
        EnduranceCampaignConfig cfg = wearOutConfig(4);
        cfg.base.seed = seed;
        auto res = runEnduranceCampaign(cfg);
        EXPECT_TRUE(res.invariantHolds())
            << "seed " << seed << ": " << res.mismatchedRecovered
            << " recovered VPC(s) mismatched golden";
    }
}

TEST(EnduranceCampaign, SameConfigSameSamplePath)
{
    EnduranceCampaignConfig cfg = wearOutConfig(4, 12);
    auto a = runEnduranceCampaign(cfg);
    auto b = runEnduranceCampaign(cfg);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.firstFailedVpc, b.firstFailedVpc);
    EXPECT_EQ(a.firstFailedDeposits, b.firstFailedDeposits);
    EXPECT_EQ(a.stats.depositPulses, b.stats.depositPulses);
    EXPECT_EQ(a.stats.writeFaultsInjected,
              b.stats.writeFaultsInjected);
    EXPECT_EQ(a.stats.redeposits, b.stats.redeposits);
    EXPECT_EQ(a.stats.trackRemaps, b.stats.trackRemaps);
    EXPECT_EQ(a.stats.writeFailures, b.stats.writeFailures);
    ASSERT_EQ(a.rounds(), b.rounds());
    for (unsigned r = 0; r < a.rounds(); ++r) {
        EXPECT_EQ(a.perRound[r].failed, b.perRound[r].failed) << r;
        EXPECT_EQ(a.perRound[r].remaps, b.perRound[r].remaps) << r;
        EXPECT_EQ(a.perRound[r].depositPulses,
                  b.perRound[r].depositPulses)
            << r;
    }
    ASSERT_EQ(a.wear.size(), b.wear.size());
    for (std::size_t i = 0; i < a.wear.size(); ++i) {
        EXPECT_EQ(a.wear[i].deposits, b.wear[i].deposits) << i;
        EXPECT_EQ(a.wear[i].maxTrackWear, b.wear[i].maxTrackWear)
            << i;
        EXPECT_EQ(a.wear[i].remaps, b.wear[i].remaps) << i;
    }
}

TEST(EnduranceCampaign, RecoveryLadderRecoversStaticBaselineLosses)
{
    // The static baseline loses VPCs at this operating point; the
    // same config with the ladder enabled must save some of them,
    // and every Failed VPC must be accounted recovered-or-lost.
    EnduranceCampaignConfig base = wearOutConfig(0);
    auto baseline = runEnduranceCampaign(base);
    ASSERT_GT(baseline.failed, 0u);

    EnduranceCampaignConfig cfg = wearOutConfig(0);
    cfg.recovery.enabled = true;
    auto res = runEnduranceCampaign(cfg);
    ASSERT_GT(res.failed, 0u);
    EXPECT_TRUE(res.invariantHolds());
    EXPECT_GT(res.recovered, 0u);
    EXPECT_EQ(res.recovered + res.unrecoverable, res.failed);
    EXPECT_EQ(res.recovered, res.recoveredByRetry +
                                 res.recoveredByRehome +
                                 res.recoveredByReplan);
    EXPECT_EQ(res.recoveryStats.failedVpcs, res.failed);
    EXPECT_GT(res.recoveryStats.snapshots, 0u);
    EXPECT_GT(res.recoveryStats.snapshotBytes, 0u);
    // The ladder only engages AFTER a failure, so the trajectory up
    // to the first Failed VPC is the baseline's, bit for bit.
    EXPECT_EQ(res.firstFailedVpc, baseline.firstFailedVpc);
    EXPECT_EQ(res.firstFailedRound, baseline.firstFailedRound);
    EXPECT_EQ(res.firstFailedDeposits, baseline.firstFailedDeposits);
    // The honest lifetime metric: nothing lost => -1; otherwise the
    // first loss cannot precede the first ladder entry.
    if (res.unrecoverable == 0) {
        EXPECT_EQ(res.firstUnrecoverableVpc, -1);
        EXPECT_EQ(res.firstUnrecoverableRound, -1);
    } else {
        EXPECT_GE(res.firstUnrecoverableVpc, res.firstFailedVpc);
        EXPECT_GE(res.firstUnrecoverableDeposits,
                  res.firstFailedDeposits);
    }
    // Re-executions spend sampled pulses, tracked separately.
    EXPECT_GT(res.recoveryDeposits, 0u);
    std::uint64_t per_round_recovered = 0;
    std::uint64_t per_round_deposits = 0;
    for (const EnduranceRound &r : res.perRound) {
        per_round_recovered += r.recoveredVpcs;
        per_round_deposits += r.recoveryDeposits;
    }
    EXPECT_EQ(per_round_recovered, res.recovered);
    EXPECT_EQ(per_round_deposits, res.recoveryDeposits);
}

TEST(EnduranceCampaign, RecoveryDisabledMirrorsLegacyMetrics)
{
    // Disabled recovery must be the historical campaign bit-for-bit:
    // every Failed VPC is lost and the unrecoverable metrics mirror
    // the legacy firstFailed* ones exactly.
    auto res = runEnduranceCampaign(wearOutConfig(0));
    ASSERT_GT(res.failed, 0u);
    EXPECT_EQ(res.recovered, 0u);
    EXPECT_EQ(res.unrecoverable, res.failed);
    EXPECT_EQ(res.firstUnrecoverableVpc, res.firstFailedVpc);
    EXPECT_EQ(res.firstUnrecoverableRound, res.firstFailedRound);
    EXPECT_EQ(res.firstUnrecoverableDeposits,
              res.firstFailedDeposits);
    EXPECT_EQ(res.recoveryDeposits, 0u);
    EXPECT_EQ(res.recoveryStats.batches, 0u);
    EXPECT_EQ(res.recoveryStats.snapshots, 0u);
    EXPECT_EQ(res.recoveryStats.rollbacks, 0u);
    EXPECT_EQ(res.recoveryStats.retries, 0u);
}

TEST(EnduranceCampaign, RecoveryCampaignByteIdenticalAcrossEngineJobs)
{
    // The ladder runs serially in submit order after each round's
    // drain, so results must not depend on engine parallelism.
    EnduranceCampaignConfig cfg = wearOutConfig(0);
    cfg.recovery.enabled = true;
    EnduranceCampaignResult first;
    bool have_first = false;
    for (unsigned jobs : {1u, 2u, 8u}) {
        cfg.base.engineJobs = jobs;
        auto res = runEnduranceCampaign(cfg);
        EXPECT_TRUE(res.invariantHolds()) << "jobs " << jobs;
        if (!have_first) {
            first = res;
            have_first = true;
            ASSERT_GT(first.failed, 0u);
            continue;
        }
        EXPECT_EQ(first.failed, res.failed) << jobs;
        EXPECT_EQ(first.recovered, res.recovered) << jobs;
        EXPECT_EQ(first.recoveredByRetry, res.recoveredByRetry)
            << jobs;
        EXPECT_EQ(first.recoveredByRehome, res.recoveredByRehome)
            << jobs;
        EXPECT_EQ(first.recoveredByReplan, res.recoveredByReplan)
            << jobs;
        EXPECT_EQ(first.unrecoverable, res.unrecoverable) << jobs;
        EXPECT_EQ(first.firstUnrecoverableVpc,
                  res.firstUnrecoverableVpc)
            << jobs;
        EXPECT_EQ(first.recoveryDeposits, res.recoveryDeposits)
            << jobs;
        EXPECT_EQ(first.recoveryStats.rollbacks,
                  res.recoveryStats.rollbacks)
            << jobs;
        EXPECT_EQ(first.recoveryStats.rollbackBytes,
                  res.recoveryStats.rollbackBytes)
            << jobs;
        EXPECT_EQ(first.stats.depositPulses, res.stats.depositPulses)
            << jobs;
        EXPECT_EQ(first.stats.writeFaultsInjected,
                  res.stats.writeFaultsInjected)
            << jobs;
        EXPECT_EQ(first.stats.trackRemaps, res.stats.trackRemaps)
            << jobs;
        ASSERT_EQ(first.rounds(), res.rounds());
        for (unsigned r = 0; r < first.rounds(); ++r) {
            EXPECT_EQ(first.perRound[r].failed, res.perRound[r].failed)
                << "jobs " << jobs << " round " << r;
            EXPECT_EQ(first.perRound[r].recoveredVpcs,
                      res.perRound[r].recoveredVpcs)
                << "jobs " << jobs << " round " << r;
            EXPECT_EQ(first.perRound[r].recoveryDeposits,
                      res.perRound[r].recoveryDeposits)
                << "jobs " << jobs << " round " << r;
        }
        ASSERT_EQ(first.wear.size(), res.wear.size());
        for (std::size_t i = 0; i < first.wear.size(); ++i) {
            EXPECT_EQ(first.wear[i].deposits, res.wear[i].deposits)
                << "jobs " << jobs << " sub " << i;
            EXPECT_EQ(first.wear[i].maxTrackWear,
                      res.wear[i].maxTrackWear)
                << "jobs " << jobs << " sub " << i;
        }
    }
}

/** Small endurance grid shared by the parallelism test. */
SweepRunner
enduranceGrid()
{
    SweepRunner sweep("endurance_determinism");
    for (unsigned sp : {0u, 4u})
        for (double eta : {400.0, 600.0}) {
            EnduranceCampaignConfig cfg;
            cfg.base.pStep = 0.0;
            cfg.base.pWrite0 = 1e-4;
            cfg.base.writeEndurance = eta;
            cfg.base.weibullShape = 6.0;
            cfg.base.spareTracks = sp;
            cfg.base.vpcs = 8;
            cfg.rounds = 10;
            cfg.base.seed = 0xFACE ^ (sp * 131) ^
                            std::uint64_t(eta);
            sweep.add("sp" + std::to_string(sp),
                      "eta" + std::to_string(unsigned(eta)),
                      [cfg] {
                          auto res = runEnduranceCampaign(cfg);
                          SweepCellResult cell;
                          cell.value = double(res.firstFailedVpc);
                          cell.metrics["failed"] = res.failed;
                          cell.metrics["deposit_pulses"] =
                              double(res.stats.depositPulses);
                          cell.metrics["write_faults"] = double(
                              res.stats.writeFaultsInjected);
                          cell.metrics["redeposits"] =
                              double(res.stats.redeposits);
                          cell.metrics["remaps"] =
                              double(res.stats.trackRemaps);
                          cell.metrics["write_failures"] =
                              double(res.stats.writeFailures);
                          cell.metrics["mismatched_recovered"] =
                              res.mismatchedRecovered;
                          return cell;
                      });
        }
    return sweep;
}

TEST(EnduranceCampaign, ResultsIdenticalAcrossSweepJobCounts)
{
    // Write-fault counters included: every cell owns its persistent
    // system pair, so sweep parallelism cannot leak into the wear
    // trajectories or the sampled nucleation streams.
    setenv("STREAMPIM_JOBS", "1", 1);
    SweepRunner serial = enduranceGrid();
    ASSERT_EQ(serial.jobs(), 1u);
    serial.run();

    setenv("STREAMPIM_JOBS", "4", 1);
    SweepRunner parallel = enduranceGrid();
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
}

/** Adaptive (closed-loop) variant of the wear-out point. */
EnduranceCampaignConfig
adaptiveConfig(double eta = 500.0, unsigned rounds = 48)
{
    EnduranceCampaignConfig cfg = wearOutConfig(4, rounds);
    cfg.base.writeEndurance = eta;
    cfg.adaptive.enabled = true;
    cfg.adaptive.cadence = 1;
    cfg.adaptive.migrationSpareThreshold = 0;
    // Proactive wear trigger comfortably past the one-time input
    // staging wear (~512) but before the Weibull cliff (~2 x eta).
    cfg.adaptive.migrationWearThreshold =
        std::uint64_t(eta * 1.5);
    cfg.adaptive.quarantine = true;
    return cfg;
}

TEST(AdaptiveEndurance, DisabledPolicyMatchesStaticCampaign)
{
    // adaptive.enabled = false must reproduce the historical
    // open-loop sample path exactly — same failures, same wear.
    EnduranceCampaignConfig st = wearOutConfig(4, 20);
    EnduranceCampaignConfig ad = st;
    ad.adaptive.enabled = false;
    ad.adaptive.migrationWearThreshold = 123; // ignored when off
    auto a = runEnduranceCampaign(st);
    auto b = runEnduranceCampaign(ad);
    EXPECT_EQ(a.firstFailedVpc, b.firstFailedVpc);
    EXPECT_EQ(a.stats.depositPulses, b.stats.depositPulses);
    EXPECT_EQ(a.stats.writeFaultsInjected,
              b.stats.writeFaultsInjected);
    EXPECT_EQ(b.policyEvaluations, 0u);
    EXPECT_EQ(b.migrations, 0u);
    EXPECT_EQ(b.quarantinedSubarrays, 0u);
    ASSERT_EQ(b.finalHomes.size(), 2u);
    EXPECT_EQ(b.finalHomes[0], 0u);
    EXPECT_EQ(b.finalHomes[1], 1u);
}

TEST(AdaptiveEndurance, HealthTrajectoryIsRecordedPerRound)
{
    auto res = runEnduranceCampaign(wearOutConfig(4, 20));
    ASSERT_EQ(res.rounds(), 20u);
    unsigned prev_remaining = 0;
    for (unsigned r = 0; r < res.rounds(); ++r) {
        const EnduranceRound &rr = res.perRound[r];
        ASSERT_FALSE(rr.health.empty()) << r;
        EXPECT_GT(rr.sparesTotal, 0u) << r;
        EXPECT_LE(rr.remainingSpares, rr.sparesTotal) << r;
        // Spares only drain, wear only grows.
        if (r > 0) {
            EXPECT_LE(rr.remainingSpares, prev_remaining) << r;
            EXPECT_GE(rr.maxWear, res.perRound[r - 1].maxWear)
                << r;
        }
        prev_remaining = rr.remainingSpares;
    }
    // This operating point wears out: the curve must actually drop.
    EXPECT_LT(res.perRound.back().remainingSpares,
              res.perRound.front().remainingSpares);
}

TEST(AdaptiveEndurance, MigrationExtendsFirstFailure)
{
    for (double eta : {450.0, 600.0}) {
        EnduranceCampaignConfig st = adaptiveConfig(eta);
        st.adaptive.enabled = false;
        EnduranceCampaignConfig ad = adaptiveConfig(eta);
        auto s = runEnduranceCampaign(st);
        auto a = runEnduranceCampaign(ad);
        ASSERT_GT(s.failed, 0u)
            << "eta " << eta
            << ": static never wore out — retune the test";
        EXPECT_TRUE(s.invariantHolds());
        EXPECT_TRUE(a.invariantHolds());
        EXPECT_GT(a.migrations, 0u);
        EXPECT_GT(a.policyEvaluations, 0u);
        // The gate: adaptive survives strictly more useful-work
        // write volume (or the whole campaign).
        if (a.firstFailedVpc >= 0) {
            EXPECT_GT(a.firstFailedProgramDeposits,
                      s.firstFailedProgramDeposits)
                << "eta " << eta;
            EXPECT_GT(a.firstFailedRound, s.firstFailedRound)
                << "eta " << eta;
        }
        // Homes actually moved off the initial placement.
        ASSERT_EQ(a.finalHomes.size(), 2u);
        EXPECT_TRUE(a.finalHomes[0] != 0u ||
                    a.finalHomes[1] != 1u);
        // Migration accounting is self-consistent.
        std::uint64_t migr_dep = 0;
        unsigned migr = 0, migr_failed = 0, quar = 0;
        for (const EnduranceRound &r : a.perRound) {
            migr_dep += r.migrationDeposits;
            migr += r.migrations;
            migr_failed += r.migrationFailed;
            quar += r.newlyQuarantined;
        }
        EXPECT_EQ(migr, a.migrations);
        EXPECT_EQ(migr_failed, a.migrationFailed);
        EXPECT_EQ(migr_dep, a.migrationDeposits);
        EXPECT_EQ(quar, a.quarantinedSubarrays);
        EXPECT_EQ(a.migrationBytes,
                  std::uint64_t(a.migrations) * 4096u);
    }
}

TEST(AdaptiveEndurance, InvariantHoldsUnderMigrationAcrossSeeds)
{
    // The recovery invariant must survive migration + quarantine on
    // several sample paths, including ones with Failed migrations.
    for (std::uint64_t seed : {31u, 32u, 33u}) {
        EnduranceCampaignConfig cfg = adaptiveConfig(450.0);
        cfg.base.seed = seed;
        auto res = runEnduranceCampaign(cfg);
        EXPECT_TRUE(res.invariantHolds())
            << "seed " << seed << ": " << res.mismatchedRecovered
            << " recovered byte range(s) mismatched golden";
    }
}

TEST(AdaptiveEndurance, ByteIdenticalAcrossEngineJobs)
{
    EnduranceCampaignConfig cfg = adaptiveConfig(500.0, 40);
    cfg.base.engineJobs = 1;
    auto j1 = runEnduranceCampaign(cfg);
    cfg.base.engineJobs = 2;
    auto j2 = runEnduranceCampaign(cfg);
    cfg.base.engineJobs = 8;
    auto j8 = runEnduranceCampaign(cfg);
    for (const auto *j : {&j2, &j8}) {
        EXPECT_EQ(j1.firstFailedVpc, j->firstFailedVpc);
        EXPECT_EQ(j1.firstFailedProgramDeposits,
                  j->firstFailedProgramDeposits);
        EXPECT_EQ(j1.failed, j->failed);
        EXPECT_EQ(j1.migrations, j->migrations);
        EXPECT_EQ(j1.migrationFailed, j->migrationFailed);
        EXPECT_EQ(j1.migrationDeposits, j->migrationDeposits);
        EXPECT_EQ(j1.quarantinedSubarrays,
                  j->quarantinedSubarrays);
        EXPECT_EQ(j1.finalHomes, j->finalHomes);
        EXPECT_EQ(j1.stats.depositPulses, j->stats.depositPulses);
        EXPECT_EQ(j1.stats.writeFaultsInjected,
                  j->stats.writeFaultsInjected);
        EXPECT_EQ(j1.stats.redeposits, j->stats.redeposits);
        EXPECT_EQ(j1.stats.trackRemaps, j->stats.trackRemaps);
        ASSERT_EQ(j1.rounds(), j->rounds());
        for (unsigned r = 0; r < j1.rounds(); ++r) {
            EXPECT_EQ(j1.perRound[r].failed, j->perRound[r].failed)
                << r;
            EXPECT_EQ(j1.perRound[r].migrations,
                      j->perRound[r].migrations)
                << r;
            EXPECT_EQ(j1.perRound[r].remainingSpares,
                      j->perRound[r].remainingSpares)
                << r;
        }
    }
}

TEST(AdaptiveEnduranceDeath, RejectsZeroCadence)
{
    EnduranceCampaignConfig cfg = adaptiveConfig();
    cfg.adaptive.cadence = 0;
    EXPECT_EXIT(runEnduranceCampaign(cfg), testing::ExitedWithCode(1),
                "cadence");
}

TEST(EnduranceCampaignDeath, RejectsOversizedCampaigns)
{
    EnduranceCampaignConfig cfg;
    cfg.rounds = 0;
    EXPECT_DEATH(runEnduranceCampaign(cfg), "round");
    cfg = EnduranceCampaignConfig{};
    cfg.rounds = 100000;
    EXPECT_DEATH(runEnduranceCampaign(cfg), "round");
}

} // namespace
} // namespace streampim
