#include "runtime/recovery.hh"

#include "core/stream_pim.hh"
#include "runtime/health_policy.hh"

namespace streampim
{

RecoveryManager::RecoveryManager(const RecoveryConfig &cfg,
                                 StreamPimSystem &system,
                                 HealthPolicy &policy)
    : cfg_(cfg), system_(system), policy_(policy)
{
    cfg_.validate();
}

void
RecoveryManager::noteBatch(const BatchJournal &journal)
{
    stats_.batches++;
    stats_.snapshots += journal.regionCount();
    stats_.snapshotBytes += journal.snapshotBytes();
}

std::uint32_t
RecoveryManager::pickTarget(std::uint32_t failing,
                            const Hooks &hooks) const
{
    const std::vector<SubarrayWear> wear = system_.wearSummaries();
    const std::uint32_t total = std::uint32_t(wear.size());
    const std::uint32_t best =
        policy_.leastWornTarget(wear, failing, hooks.excluded);
    // "Strictly healthier": a target at least as worn as the
    // failing subarray on every axis would just fail the same way,
    // so re-homing onto it is wasted budget. Ties on the wear axes
    // still count as healthier when the failing subarray has
    // exhausted mats and the target has none — the tuple order
    // handles that; only an identical-or-worse candidate is
    // rejected here.
    if (best != total && failing < total &&
        healthKey(wear[best], best) >= healthKey(wear[failing], 0))
        return total;
    return best;
}

VpcRecoveryOutcome
RecoveryManager::recoverVpc(std::size_t g, BatchJournal &journal,
                            const Hooks &hooks)
{
    SPIM_ASSERT(hooks.failingSubarray,
                "recovery hooks need failingSubarray");
    stats_.failedVpcs++;

    VpcRecoveryOutcome out;
    Vpc vpc = journal.vpc(g);
    std::uint32_t failing = hooks.failingSubarray(g);
    out.newHome = failing;

    auto rollback = [&] {
        stats_.rollbacks++;
        stats_.rollbackBytes += system_.rollbackGroup(journal, g);
    };

    auto reexecute = [&](RecoveryRung rung) {
        out.attempts++;
        const VpcExecutionRecord rec = system_.executeSingle(vpc);
        if (rec.fault.status != FaultStatus::Failed) {
            out.rung = rung;
            out.finalStatus = rec.fault.status;
            stats_.recovered++;
            return true;
        }
        return false;
    };

    // Rung 1: retry in place. The fault sample that failed was one
    // draw from the injector's stream; a rollback + re-execution
    // draws the next one on the same, still-mostly-alive hardware.
    for (unsigned r = 0; r < cfg_.retryBudget; ++r) {
        rollback();
        stats_.retries++;
        if (reexecute(RecoveryRung::RetryInPlace)) {
            stats_.recoveredByRetry++;
            return out;
        }
    }

    // Rung 2: re-home onto a strictly-healthier subarray. The hook
    // moves the operands (on the faulty system and any golden
    // sibling) and rewrites the VPC; we journal nothing extra here
    // — the hook calls journalExtra for the rewritten destination.
    if (hooks.rehome) {
        for (unsigned r = 0; r < cfg_.rehomeBudget; ++r) {
            const std::uint32_t to = pickTarget(failing, hooks);
            if (to >= system_.params().totalSubarrays())
                break;
            rollback();
            Vpc moved = vpc;
            if (!hooks.rehome(g, to, moved))
                break;
            stats_.rehomes++;
            vpc = moved;
            out.newHome = to;
            out.rehomed = true;
            if (reexecute(RecoveryRung::Rehome)) {
                stats_.recoveredByRehome++;
                return out;
            }
            failing = to; // the new home failed too; escalate past it
        }

        // Rung 3: the failing subarray is proven bad — quarantine it
        // (sticky, in the policy's set) and re-plan onto the
        // shrunken survivor set.
        for (unsigned r = 0; r < cfg_.replanBudget; ++r) {
            policy_.forceQuarantine(failing);
            stats_.replans++;
            const std::uint32_t to = pickTarget(failing, hooks);
            if (to >= system_.params().totalSubarrays())
                break;
            rollback();
            Vpc moved = vpc;
            if (!hooks.rehome(g, to, moved))
                break;
            stats_.rehomes++;
            vpc = moved;
            out.newHome = to;
            out.rehomed = true;
            if (reexecute(RecoveryRung::Replan)) {
                stats_.recoveredByReplan++;
                return out;
            }
            failing = to;
        }
    }

    // Budgets exhausted: leave the pre-batch bytes in place so the
    // host sees consistent (stale, never corrupt) data, and surface
    // the loss honestly.
    rollback();
    out.rung = RecoveryRung::Unrecoverable;
    out.finalStatus = FaultStatus::Failed;
    stats_.unrecoverable++;
    return out;
}

} // namespace streampim
