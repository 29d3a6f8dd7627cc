/**
 * @file
 * HealthPolicy: the closed-loop device-health subsystem, and the one
 * owner of subarray retirement: it ranks subarrays for operand
 * migration, keeps the only quarantine set, and picks the recovery
 * ladders' re-home and evacuation targets (leastWornTarget).
 *
 * The device surfaces SMART-style BankHealth and per-subarray wear;
 * HealthPolicy feeds that telemetry back into a running endurance
 * campaign. Between rounds it consumes bankHealth()/wearSummaries()
 * snapshots and, at a configurable cadence:
 *
 *  1. re-ranks — a stable sort of every subarray ascending by its
 *     worst live save track, so ties keep the previous evaluation's
 *     order and the least-worn subarrays lead the candidate list;
 *  2. quarantines — subarrays with a spare-exhausted mat are
 *     retired for good and never chosen as migration targets, so
 *     the device degrades by shrinking capacity instead of emitting
 *     Failed VPCs;
 *  3. migrates — live operands homed on banks whose remaining spare
 *     pool fell below a threshold (or on worn or quarantined
 *     subarrays) are moved to the best-ranked surviving subarray.
 *     The policy only decides; the campaign executes the copies as
 *     TRAN VPCs on both the golden and the faulty system.
 *
 * Both recovery ladders — RecoveryManager (runtime/recovery.hh) and
 * the tiled matmul's task ladder (core/tiled_matmul.cc) — quarantine
 * through forceQuarantine and take targets from leastWornTarget, so
 * "which subarrays are retired" and "which healthy one comes next"
 * are each written once.
 *
 * Wear-driven re-placement is this reproduction's extension: the
 * paper's runtime places operands statically, so the timed planner
 * never consults the policy.
 *
 * Everything is deterministic: decisions are pure functions of the
 * telemetry snapshots, the config and the previous ranking, and
 * candidate scans run in ranking order. A campaign driven by the
 * policy is therefore one reproducible sample path, byte-identical
 * at any engine job count (DESIGN.md §8).
 */

#ifndef STREAMPIM_RUNTIME_HEALTH_POLICY_HH_
#define STREAMPIM_RUNTIME_HEALTH_POLICY_HH_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/stream_pim.hh"

namespace streampim
{

/** Knobs of the closed-loop health policy. */
struct HealthPolicyConfig
{
    /** Master switch: disabled = static placement (open loop). */
    bool enabled = false;

    /**
     * Rounds between policy evaluations. 1 re-evaluates after every
     * round; N only after rounds N-1, 2N-1, ... (0-based).
     */
    unsigned cadence = 1;

    /**
     * Migrate live operands off a bank once its remaining spare
     * save tracks drop strictly below this count. The spare pool is
     * per-mat and wear concentrates on the hot mats, so useful
     * thresholds sit well above zero: by the time the *bank* total
     * has visibly drained, the hot mats are nearly exhausted.
     */
    unsigned migrationSpareThreshold = 4;

    /**
     * Proactive wear trigger (0 = off): migrate an operand once its
     * home subarray's worst live save track exceeds this many
     * deposits. Under a steep Weibull hazard every track of a hot
     * mat reaches the wear cliff in the same round and the spare
     * pool drains in one burst, so spare counts are a *lagging*
     * signal; track wear is the leading one. Callers typically set
     * this to a multiple of the device's characteristic life (e.g.
     * 1.5 x writeEndurance, comfortably past the one-time staging
     * wear but before the hazard becomes material).
     */
    std::uint64_t migrationWearThreshold = 0;

    /**
     * Quarantine spare-exhausted subarrays: never migrate onto them.
     * Off = the policy may keep placing work on dead subarrays
     * (ablation knob; expect earlier Failed VPCs).
     */
    bool quarantine = true;

    void
    validate() const;
};

/** One operand migration the policy decided on. */
struct MigrationStep
{
    /** Index into the caller's live-operand home list. */
    unsigned operand = 0;
    std::uint32_t from = 0; //!< current home subarray
    std::uint32_t to = 0;   //!< least-worn surviving target
};

/** What one policy evaluation decided. */
struct HealthDecision
{
    /** Operand moves to execute, in operand order. */
    std::vector<MigrationStep> migrations;
    /** Subarrays newly quarantined by this evaluation. */
    std::vector<std::uint32_t> newlyQuarantined;
};

/** Closed-loop health policy over one device's telemetry. */
class HealthPolicy
{
  public:
    /**
     * @param cfg policy knobs (cfg.validate() is enforced).
     * @param total_subarrays global subarray count of the device.
     * @param subarrays_per_bank bank geometry (bank of subarray s is
     *        s / subarrays_per_bank, matching RmParams).
     */
    HealthPolicy(const HealthPolicyConfig &cfg,
                 unsigned total_subarrays,
                 unsigned subarrays_per_bank);

    const HealthPolicyConfig &config() const { return cfg_; }

    /** True when round @p round (0-based) is an evaluation point. */
    bool
    shouldEvaluate(unsigned round) const
    {
        return cfg_.enabled && (round + 1) % cfg_.cadence == 0;
    }

    /**
     * One closed-loop evaluation: consume a bankHealth() +
     * wearSummaries() snapshot pair and the current live-operand
     * homes; re-rank the subarrays, update the quarantine set, and
     * decide operand migrations. Deterministic in the
     * inputs. Homes are never migrated onto each other and targets
     * are always distinct, so operands stay on disjoint subarrays.
     */
    HealthDecision evaluate(std::span<const BankHealth> health,
                            std::span<const SubarrayWear> wear,
                            std::span<const std::uint32_t> homes);

    /** Sticky quarantine set (by global subarray id). */
    bool
    isQuarantined(std::uint32_t sub) const
    {
        return sub < quarantined_.size() && quarantined_[sub];
    }

    /**
     * Quarantine @p sub immediately (recovery-ladder rung 3,
     * runtime/recovery.hh): the failing subarray is proven bad by a
     * Failed VPC, so the ladder does not wait for the next cadence
     * point. Sticky like evaluate()'s quarantines; quarantining a
     * retired subarray again is a no-op.
     */
    void
    forceQuarantine(std::uint32_t sub)
    {
        if (sub < quarantined_.size())
            quarantined_[sub] = true;
    }

    /**
     * The recovery ladders' re-home/evacuation target: the
     * least-healthKey subarray (mem/subarray.hh) of the @p wear
     * snapshot that is not @p avoid, not quarantined and not
     * @p excluded (an empty predicate excludes nothing), or
     * wear.size() when none is left. A pure function of the
     * snapshot and the quarantine set, so targets are deterministic.
     */
    std::uint32_t
    leastWornTarget(std::span<const SubarrayWear> wear,
                    std::uint32_t avoid,
                    const std::function<bool(std::uint32_t)> &excluded)
        const;

    /** Number of quarantined subarrays so far. */
    unsigned quarantinedCount() const;

    /** Evaluations run so far (telemetry). */
    unsigned evaluations() const { return evaluations_; }

  private:
    unsigned bankOf(std::uint32_t sub) const;

    /** Remaining spare tracks of @p sub's bank in @p health. */
    unsigned bankRemainingSpares(std::span<const BankHealth> health,
                                 std::uint32_t sub) const;

    HealthPolicyConfig cfg_;
    unsigned totalSubarrays_;
    unsigned subarraysPerBank_;
    /** Migration candidates, best first: every subarray, re-sorted
     * stably by worst-track wear on each evaluation. */
    std::vector<std::uint32_t> rank_;
    std::vector<bool> quarantined_;
    unsigned evaluations_ = 0;
};

} // namespace streampim

#endif // STREAMPIM_RUNTIME_HEALTH_POLICY_HH_
