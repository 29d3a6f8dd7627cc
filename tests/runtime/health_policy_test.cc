/**
 * @file
 * Unit tests for the closed-loop HealthPolicy: evaluation cadence,
 * quarantine stickiness, migration triggers (spare threshold, wear
 * threshold, forced by quarantine), target selection (healthier
 * only, distinct, never a home or a quarantined subarray), the
 * stable wear ranking carried across evaluations, and the recovery
 * ladders' least-worn target scan.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/health_policy.hh"

namespace streampim
{
namespace
{

/** 2 banks x 2 subarrays, matching smallFunctionalParams. */
constexpr unsigned kSubs = 4;
constexpr unsigned kSubsPerBank = 2;

HealthPolicyConfig
enabledConfig()
{
    HealthPolicyConfig cfg;
    cfg.enabled = true;
    cfg.cadence = 1;
    cfg.migrationSpareThreshold = 0; // spare trigger off
    cfg.migrationWearThreshold = 0;  // wear trigger off
    cfg.quarantine = true;
    return cfg;
}

/** Pristine snapshots: both banks full spares, no wear. */
std::vector<BankHealth>
healthOf(unsigned bank0_used, unsigned bank1_used,
         unsigned total_per_bank = 32)
{
    std::vector<BankHealth> h(2);
    h[0].bank = 0;
    h[0].sparesUsed = bank0_used;
    h[0].sparesTotal = total_per_bank;
    h[1].bank = 1;
    h[1].sparesUsed = bank1_used;
    h[1].sparesTotal = total_per_bank;
    return h;
}

std::vector<SubarrayWear>
wearOf(std::vector<std::uint64_t> max_wear)
{
    std::vector<SubarrayWear> w(max_wear.size());
    for (std::size_t i = 0; i < max_wear.size(); ++i) {
        w[i].maxTrackWear = max_wear[i];
        w[i].sparesTotal = 16;
    }
    return w;
}

TEST(HealthPolicy, CadenceGatesEvaluationPoints)
{
    HealthPolicyConfig cfg = enabledConfig();
    cfg.cadence = 3;
    HealthPolicy p(cfg, kSubs, kSubsPerBank);
    // 0-based rounds: evaluate after rounds 2, 5, 8, ...
    EXPECT_FALSE(p.shouldEvaluate(0));
    EXPECT_FALSE(p.shouldEvaluate(1));
    EXPECT_TRUE(p.shouldEvaluate(2));
    EXPECT_FALSE(p.shouldEvaluate(3));
    EXPECT_TRUE(p.shouldEvaluate(5));

    HealthPolicyConfig off = cfg;
    off.enabled = false;
    HealthPolicy disabled(off, kSubs, kSubsPerBank);
    for (unsigned r = 0; r < 10; ++r)
        EXPECT_FALSE(disabled.shouldEvaluate(r)) << r;
}

TEST(HealthPolicy, NoTriggersMeansNoMigrations)
{
    HealthPolicy p(enabledConfig(), kSubs, kSubsPerBank);
    const std::uint32_t homes[] = {0, 1};
    auto d = p.evaluate(healthOf(0, 0), wearOf({100, 50, 0, 0}),
                        homes);
    EXPECT_TRUE(d.migrations.empty());
    EXPECT_TRUE(d.newlyQuarantined.empty());
    EXPECT_EQ(p.evaluations(), 1u);
}

TEST(HealthPolicy, SpareThresholdMigratesOffDrainedBank)
{
    HealthPolicyConfig cfg = enabledConfig();
    cfg.migrationSpareThreshold = 16; // bank rem < 16 triggers
    HealthPolicy p(cfg, kSubs, kSubsPerBank);
    const std::uint32_t homes[] = {0, 1};
    // Bank 0 has 8 spares left, bank 1 untouched: both homes (on
    // bank 0) must move to the pristine bank-1 subarrays 2 and 3.
    auto d = p.evaluate(healthOf(24, 0), wearOf({500, 400, 0, 0}),
                        homes);
    ASSERT_EQ(d.migrations.size(), 2u);
    EXPECT_EQ(d.migrations[0].operand, 0u);
    EXPECT_EQ(d.migrations[0].from, 0u);
    EXPECT_EQ(d.migrations[0].to, 2u);
    EXPECT_EQ(d.migrations[1].operand, 1u);
    EXPECT_EQ(d.migrations[1].from, 1u);
    EXPECT_EQ(d.migrations[1].to, 3u); // distinct from the first
}

TEST(HealthPolicy, WearThresholdIsTheLeadingTrigger)
{
    HealthPolicyConfig cfg = enabledConfig();
    cfg.migrationWearThreshold = 600;
    HealthPolicy p(cfg, kSubs, kSubsPerBank);
    const std::uint32_t homes[] = {0, 1};
    // Spares are all still there (the lagging signal), but home 0's
    // worst track crossed the wear threshold.
    auto d = p.evaluate(healthOf(0, 0), wearOf({700, 100, 0, 0}),
                        homes);
    ASSERT_EQ(d.migrations.size(), 1u);
    EXPECT_EQ(d.migrations[0].from, 0u);
    // Least-worn candidate wins (2 and 3 tie at 0; lower id first).
    EXPECT_EQ(d.migrations[0].to, 2u);
}

TEST(HealthPolicy, NoHealthierCandidateMeansStayPut)
{
    HealthPolicyConfig cfg = enabledConfig();
    cfg.migrationWearThreshold = 100;
    HealthPolicy p(cfg, kSubs, kSubsPerBank);
    const std::uint32_t homes[] = {0, 1};
    // Every subarray is equally worn past the threshold: moving
    // would not improve anything, so nothing moves (no ping-pong).
    auto d = p.evaluate(healthOf(0, 0),
                        wearOf({500, 500, 500, 500}), homes);
    EXPECT_TRUE(d.migrations.empty());
}

TEST(HealthPolicy, QuarantineIsStickyAndForcesEviction)
{
    HealthPolicyConfig cfg = enabledConfig();
    HealthPolicy p(cfg, kSubs, kSubsPerBank);
    const std::uint32_t homes[] = {0, 1};

    auto wear = wearOf({500, 100, 900, 0});
    wear[0].exhaustedMats = 1; // home 0's hot mat is dead
    auto d = p.evaluate(healthOf(16, 0), wear, homes);
    ASSERT_EQ(d.newlyQuarantined.size(), 1u);
    EXPECT_EQ(d.newlyQuarantined[0], 0u);
    EXPECT_TRUE(p.isQuarantined(0));
    EXPECT_EQ(p.quarantinedCount(), 1u);
    // Eviction is forced even though no threshold is configured,
    // and the target is the least-worn non-quarantined non-home.
    ASSERT_EQ(d.migrations.size(), 1u);
    EXPECT_EQ(d.migrations[0].from, 0u);
    EXPECT_EQ(d.migrations[0].to, 3u); // 3 (wear 0) beats 2 (900)

    // Sticky: the next snapshot shows the mat healthy again (it
    // cannot be in reality), the subarray stays retired.
    auto d2 = p.evaluate(healthOf(16, 0), wearOf({0, 0, 0, 0}),
                         homes);
    EXPECT_TRUE(d2.newlyQuarantined.empty());
    EXPECT_TRUE(p.isQuarantined(0));
}

TEST(HealthPolicy, QuarantinedSubarraysAreNeverTargets)
{
    HealthPolicyConfig cfg = enabledConfig();
    cfg.migrationWearThreshold = 400;
    HealthPolicy p(cfg, kSubs, kSubsPerBank);
    const std::uint32_t homes[] = {0, 1};
    auto wear = wearOf({500, 100, 0, 200});
    wear[2].exhaustedMats = 1; // the otherwise-best target is dead
    auto d = p.evaluate(healthOf(0, 0), wear, homes);
    ASSERT_EQ(d.migrations.size(), 1u);
    EXPECT_EQ(d.migrations[0].to, 3u);
}

TEST(HealthPolicy, QuarantineOffNeverRetires)
{
    HealthPolicyConfig cfg = enabledConfig();
    cfg.quarantine = false;
    HealthPolicy p(cfg, kSubs, kSubsPerBank);
    const std::uint32_t homes[] = {0, 1};
    auto wear = wearOf({500, 100, 0, 0});
    wear[0].exhaustedMats = 4;
    auto d = p.evaluate(healthOf(32, 0), wear, homes);
    EXPECT_TRUE(d.newlyQuarantined.empty());
    EXPECT_EQ(p.quarantinedCount(), 0u);
    EXPECT_FALSE(p.isQuarantined(0));
}

TEST(HealthPolicy, WearTiesKeepPreviousRankingAndSkipQuarantined)
{
    HealthPolicyConfig cfg = enabledConfig();
    cfg.migrationWearThreshold = 600;
    HealthPolicy p(cfg, kSubs, kSubsPerBank);
    const std::uint32_t homes[] = {0};

    // First evaluation: nothing crosses the threshold; the ranking
    // becomes 1, 3, 2, 0 (ascending wear).
    auto d1 = p.evaluate(healthOf(0, 0), wearOf({500, 100, 300, 200}),
                         homes);
    EXPECT_TRUE(d1.migrations.empty());

    // Second evaluation: 1, 2 and 3 tie at zero wear, so they keep
    // the first evaluation's order; 1 leads it but is quarantined,
    // so the worn home moves to 3 rather than to 1 or the lower id 2.
    auto wear = wearOf({900, 0, 0, 0});
    wear[1].exhaustedMats = 1;
    auto d2 = p.evaluate(healthOf(0, 0), wear, homes);
    ASSERT_EQ(d2.newlyQuarantined.size(), 1u);
    EXPECT_EQ(d2.newlyQuarantined[0], 1u);
    ASSERT_EQ(d2.migrations.size(), 1u);
    EXPECT_EQ(d2.migrations[0].from, 0u);
    EXPECT_EQ(d2.migrations[0].to, 3u);

    // Without the first evaluation the tie falls to subarray ids.
    HealthPolicy fresh(cfg, kSubs, kSubsPerBank);
    auto d3 = fresh.evaluate(healthOf(0, 0), wear, homes);
    ASSERT_EQ(d3.migrations.size(), 1u);
    EXPECT_EQ(d3.migrations[0].to, 2u);
}

TEST(HealthPolicy, LeastWornTargetSkipsAvoidQuarantinedAndExcluded)
{
    // The recovery ladders' target scan: least healthKey among the
    // subarrays that are not avoided, quarantined or excluded.
    HealthPolicy p(enabledConfig(), kSubs, kSubsPerBank);
    const std::function<bool(std::uint32_t)> none;
    auto wear = wearOf({900, 100, 100, 50});
    wear[3].exhaustedMats = 1; // an exhausted mat outweighs any wear

    // 1 and 2 tie on every wear axis: the id breaks it.
    EXPECT_EQ(p.leastWornTarget(wear, 0, none), 1u);
    EXPECT_EQ(p.leastWornTarget(wear, 1, none), 2u);
    EXPECT_EQ(p.leastWornTarget(wear, kSubs, none), 1u);

    auto not_one = [](std::uint32_t s) { return s == 1; };
    EXPECT_EQ(p.leastWornTarget(wear, 0, not_one), 2u);

    p.forceQuarantine(2);
    p.forceQuarantine(2); // idempotent
    EXPECT_EQ(p.quarantinedCount(), 1u);
    EXPECT_EQ(p.leastWornTarget(wear, 0, not_one), 3u)
        << "only the exhausted subarray is left";
    EXPECT_EQ(p.leastWornTarget(wear, 3, not_one), 0u);

    // Every candidate avoided, excluded or quarantined.
    auto one_or_three = [](std::uint32_t s) { return s == 1 || s == 3; };
    EXPECT_EQ(p.leastWornTarget(wear, 0, one_or_three), kSubs);
    p.forceQuarantine(0);
    p.forceQuarantine(1);
    p.forceQuarantine(3);
    EXPECT_EQ(p.leastWornTarget(wear, kSubs, none), kSubs);
}

TEST(HealthPolicyDeath, RejectsBadConfigAndInputs)
{
    HealthPolicyConfig cfg = enabledConfig();
    cfg.cadence = 0;
    EXPECT_EXIT(HealthPolicy(cfg, kSubs, kSubsPerBank),
                testing::ExitedWithCode(1),
                "cadence must be >= 1 round, got 0");

    HealthPolicy p(enabledConfig(), kSubs, kSubsPerBank);
    const std::uint32_t homes[] = {0, 1};
    // Wear snapshot for the wrong geometry.
    EXPECT_DEATH(
        p.evaluate(healthOf(0, 0), wearOf({0, 0}), homes),
        "wear snapshot");
    EXPECT_DEATH(p.leastWornTarget(wearOf({0, 0}), 0, {}),
                 "wear snapshot");
    // A home outside the device.
    const std::uint32_t bad_homes[] = {0, 99};
    EXPECT_DEATH(p.evaluate(healthOf(0, 0),
                            wearOf({0, 0, 0, 0}), bad_homes),
                 "out of range");
}

} // namespace
} // namespace streampim
