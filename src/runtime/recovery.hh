/**
 * @file
 * Transactional VPC recovery: journaled rollback + an escalating
 * re-execution ladder (DESIGN.md §10).
 *
 * The fault stack detects, corrects and degrades, but before this
 * subsystem a `FaultStatus::Failed` VPC was terminal: its output
 * bytes were garbage and the host simply learned it lost data. The
 * recovery subsystem closes that gap with two pieces:
 *
 *  1. **Transactional batches** (BatchJournal). Before a batch
 *     executes, StreamPimSystem snapshots every region the batch's
 *     VPCs will write (the write subset of the conflict-graph touch
 *     masks) into a per-batch BumpArena. The copies are taken and
 *     restored through the fault-free controller path (injection
 *     detached, RNG streams untouched), so a Failed VPC can roll
 *     its outputs back bit-exact to the pre-batch state without
 *     perturbing the fault sample path.
 *
 *  2. **A bounded escalation ladder** (RecoveryManager). For each
 *     Failed VPC, in submit order:
 *       rung 1 — retry in place: rollback, re-execute on the same
 *                home, up to RecoveryConfig::retryBudget times;
 *       rung 2 — re-home: move the VPC's operands onto a strictly
 *                healthier subarray (least (exhaustedMats,
 *                sparesUsed, maxTrackWear, deposits, id), the
 *                healthKey order of mem/subarray.hh) and
 *                re-execute there;
 *       rung 3 — re-plan: quarantine the failing subarray
 *                (HealthPolicy::forceQuarantine) and re-home onto
 *                the shrunken survivor set;
 *     both re-home rungs take their target from
 *     HealthPolicy::leastWornTarget. Only when every budget is
 *     exhausted does the VPC surface RecoveryRung::Unrecoverable —
 *     rolled back to its pre-batch bytes, honestly reported, never
 *     silently corrupt. The tiled matmul runs its own task ladder
 *     (core/tiled_matmul.cc: no rung 2, a re-tile after each
 *     quarantine) over the same policy scan.
 *
 * Determinism: snapshots and rollbacks run injection-detached (the
 * resume path reattaches without reseeding), recovery actions run
 * serially after the batch drains, in submit order, and target
 * selection is a pure function of wear telemetry with a total
 * (wear..., id) order. Records, wear, FaultStats and memory are
 * therefore byte-identical at any STREAMPIM_JOBS value.
 *
 * Arena lifetime (DESIGN.md §10): a BatchJournal's regions point
 * into its own BumpArena and stay valid until the next clear();
 * clear() is called exactly once per batch, before snapshotting, so
 * journal spans never dangle while a batch (or its recovery) is in
 * flight. One journal is owned by one driver loop — it is never
 * shared across threads.
 */

#ifndef STREAMPIM_RUNTIME_RECOVERY_HH_
#define STREAMPIM_RUNTIME_RECOVERY_HH_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/arena.hh"
#include "common/log.hh"
#include "rm/fault_injector.hh"
#include "vpc/vpc.hh"

namespace streampim
{

class StreamPimSystem;
class HealthPolicy;

/** Budgets of the recovery escalation ladder. */
struct RecoveryConfig
{
    /** Master switch: disabled = Failed stays terminal (open loop). */
    bool enabled = false;

    /** Rung 1: rollback + re-execute on the same home, per VPC. */
    unsigned retryBudget = 2;

    /** Rung 2: re-homes onto a strictly-healthier subarray, per VPC. */
    unsigned rehomeBudget = 1;

    /** Rung 3: quarantine-the-culprit + re-plan escalations, per VPC. */
    unsigned replanBudget = 1;

    void
    validate() const
    {
        // All-zero budgets would make enabled recovery a silent
        // no-op that still pays for snapshots; make that loud.
        if (enabled && retryBudget + rehomeBudget + replanBudget == 0)
            SPIM_FATAL("recovery enabled with every ladder budget "
                       "zero (retry ", retryBudget, ", rehome ",
                       rehomeBudget, ", replan ", replanBudget, ")");
    }
};

/** Highest ladder rung a recovery episode reached. */
enum class RecoveryRung : std::uint8_t
{
    None = 0,      //!< never entered the ladder (not Failed)
    RetryInPlace,  //!< rung 1: rollback + same-home re-execution
    Rehome,        //!< rung 2: operands moved to a healthier home
    Replan,        //!< rung 3: culprit quarantined, plan shrunk
    Unrecoverable, //!< budgets exhausted; rolled back and surfaced
};

/** Counters of one recovery ladder instance. */
struct RecoveryStats
{
    std::uint64_t batches = 0;       //!< journaled batches
    std::uint64_t snapshots = 0;     //!< regions snapshotted
    std::uint64_t snapshotBytes = 0; //!< bytes snapshotted
    std::uint64_t failedVpcs = 0;    //!< episodes entering the ladder
    std::uint64_t rollbacks = 0;     //!< journal restores applied
    std::uint64_t rollbackBytes = 0; //!< bytes restored
    std::uint64_t retries = 0;       //!< rung-1 re-executions
    std::uint64_t rehomes = 0;       //!< rung-2 operand moves
    std::uint64_t replans = 0;       //!< rung-3 quarantine escalations
    std::uint64_t retiles = 0;       //!< tiled in-flight re-tilings
    std::uint64_t recovered = 0;         //!< episodes ending bit-exact
    std::uint64_t recoveredByRetry = 0;  //!< ... at rung 1
    std::uint64_t recoveredByRehome = 0; //!< ... at rung 2
    std::uint64_t recoveredByReplan = 0; //!< ... at rung 3
    std::uint64_t recoveredByRetile = 0; //!< ... after a re-tile
    std::uint64_t unrecoverable = 0;     //!< episodes surfaced lost

    void
    merge(const RecoveryStats &o)
    {
        batches += o.batches;
        snapshots += o.snapshots;
        snapshotBytes += o.snapshotBytes;
        failedVpcs += o.failedVpcs;
        rollbacks += o.rollbacks;
        rollbackBytes += o.rollbackBytes;
        retries += o.retries;
        rehomes += o.rehomes;
        replans += o.replans;
        retiles += o.retiles;
        recovered += o.recovered;
        recoveredByRetry += o.recoveredByRetry;
        recoveredByRehome += o.recoveredByRehome;
        recoveredByReplan += o.recoveredByReplan;
        recoveredByRetile += o.recoveredByRetile;
        unrecoverable += o.unrecoverable;
    }
};

/**
 * Pre-batch snapshot of every region a batch's VPCs write, grouped
 * per VPC in submit order. Filled by
 * StreamPimSystem::processQueueInto(records, jobs, journal) (or
 * journalVpc directly), restored by StreamPimSystem::rollbackGroup.
 * See the file comment for the arena lifetime rules.
 */
class BatchJournal
{
  public:
    BatchJournal() = default;
    BatchJournal(const BatchJournal &) = delete;
    BatchJournal &operator=(const BatchJournal &) = delete;

    /** Recycle for the next batch: O(1), retains arena capacity. */
    void
    clear()
    {
        arena_.reset();
        regions_.clear();
        groupBegin_.clear();
        extras_.clear();
        vpcs_.clear();
        snapshotBytes_ = 0;
    }

    /** Snapshot groups (== VPCs journaled), in submit order. */
    std::size_t groups() const { return groupBegin_.size(); }

    /** Total regions snapshotted (base + recovery extras). */
    std::size_t
    regionCount() const
    {
        return regions_.size() + extras_.size();
    }

    /** Total bytes snapshotted (base + recovery extras). */
    std::uint64_t snapshotBytes() const { return snapshotBytes_; }

    /** The VPC journaled as group @p g (submit order). */
    const Vpc &
    vpc(std::size_t g) const
    {
        SPIM_ASSERT(g < vpcs_.size(), "journal group out of range");
        return vpcs_[g];
    }

  private:
    friend class StreamPimSystem;

    /** One snapshotted byte range (bytes live in arena_). */
    struct Region
    {
        Addr addr = 0;
        std::uint32_t len = 0;
        std::uint8_t *bytes = nullptr;
    };

    BumpArena arena_;
    /** Base regions, grouped by groupBegin_[g] .. groupBegin_[g+1]. */
    std::vector<Region> regions_;
    std::vector<std::uint32_t> groupBegin_;
    /** Regions appended to an existing group during recovery (e.g.
     * the re-homed destination), kept out-of-line so base-group
     * layout stays contiguous. */
    std::vector<std::pair<std::uint32_t, Region>> extras_;
    /** Journaled VPC per group (what rollback + re-execution run). */
    std::vector<Vpc> vpcs_;
    std::uint64_t snapshotBytes_ = 0;
};

/** Outcome of one per-VPC recovery episode. */
struct VpcRecoveryOutcome
{
    RecoveryRung rung = RecoveryRung::None;
    FaultStatus finalStatus = FaultStatus::Clean;
    unsigned attempts = 0; //!< re-executions across all rungs
    /** Home subarray after the episode (changed by rungs 2/3). */
    std::uint32_t newHome = 0;
    bool rehomed = false;

    bool
    recovered() const
    {
        return rung != RecoveryRung::None &&
               rung != RecoveryRung::Unrecoverable;
    }
};

/**
 * Drives the per-VPC escalation ladder over one StreamPimSystem
 * (and, optionally, a golden fault-free sibling that must mirror
 * re-home data movement so it remains a valid reference).
 */
class RecoveryManager
{
  public:
    /**
     * Caller-provided bindings into the workload being recovered.
     * The manager owns the ladder policy; the hooks own workload
     * layout knowledge (where operands live, how to move them).
     */
    struct Hooks
    {
        /**
         * Subarray to blame for group @p g's failure (typically the
         * VPC's executing/home subarray). Required.
         */
        std::function<std::uint32_t(std::size_t g)> failingSubarray;

        /**
         * Move group @p g's operands onto subarray @p to (on the
         * faulty system and any golden sibling), rewrite the VPC
         * accordingly into @p out, and journal the rewritten
         * destination (StreamPimSystem::journalExtra) so a later
         * rollback also restores it. Return false when the workload
         * cannot re-home this VPC (rungs 2/3 are then skipped).
         */
        std::function<bool(std::size_t g, std::uint32_t to, Vpc &out)>
            rehome;

        /**
         * Extra target exclusions beyond quarantine (e.g. subarrays
         * holding unrelated live data). Optional.
         */
        std::function<bool(std::uint32_t sub)> excluded;
    };

    /**
     * @param cfg ladder budgets (validate() is enforced).
     * @param system the faulty system recovery acts on.
     * @param policy the device's health policy: it owns the sticky
     *        quarantine set rung 3 adds to and orders re-home
     *        targets (HealthPolicy::leastWornTarget).
     */
    RecoveryManager(const RecoveryConfig &cfg,
                    StreamPimSystem &system, HealthPolicy &policy);

    const RecoveryConfig &config() const { return cfg_; }
    const RecoveryStats &stats() const { return stats_; }

    /** Account a journaled batch (driver calls once per batch). */
    void noteBatch(const BatchJournal &journal);

    /**
     * Run the ladder for journal group @p g whose execution record
     * came back Failed. Re-executions run with the system's current
     * injection attach state (attach before calling for honest
     * fault sampling); rollbacks always run fault-free. Serial,
     * deterministic — call in submit order.
     */
    VpcRecoveryOutcome recoverVpc(std::size_t g,
                                  BatchJournal &journal,
                                  const Hooks &hooks);

  private:
    /**
     * The policy's least-worn eligible target (excluding @p failing
     * and hook exclusions), kept only when strictly healthier than
     * @p failing; totalSubarrays when there is none.
     */
    std::uint32_t pickTarget(std::uint32_t failing,
                             const Hooks &hooks) const;

    RecoveryConfig cfg_;
    StreamPimSystem &system_;
    HealthPolicy &policy_;
    RecoveryStats stats_;
};

} // namespace streampim

#endif // STREAMPIM_RUNTIME_RECOVERY_HH_
