/**
 * @file
 * Ablation — transactional VPC recovery (runtime/recovery.hh):
 * ladder depth x Weibull characteristic-life operating points.
 *
 * Each cell runs an EnduranceCampaign at a wear-out operating point
 * (no spare tracks, shape-6 Weibull, shift faults off) with the
 * recovery ladder truncated at increasing depths: disabled
 * (`off` — the historical terminal-Failed behaviour), retry-in-place
 * only (`retry`), retry + re-home (`rehome`), and the full ladder
 * with quarantine-and-re-plan (`full`). The seed is a function of
 * the operating point only, so every ladder row in a column replays
 * the identical fault stream up to the first Failed VPC and the
 * rows differ exactly by what the ladder does about it.
 *
 * Reported per cell: the pre-recovery Failed count, how many of
 * those the ladder returned to a bit-exact state (recovered
 * fraction), the per-rung split, journal/rollback volumes, and the
 * honest post-ladder lifetime (first UNRECOVERABLE VPC). A timed
 * overlay then prices the journal: a representative out-of-core
 * matmul schedule is executed on the timed model with a
 * Planner::planRecovery snapshot stream mirroring every byte the
 * program writes (each written byte journaled once before its
 * batch), and the executor's Recovery cycle category is compared
 * against the makespan.
 *
 * Gates (nonzero exit on violation):
 *  - the recovery invariant: mismatchedRecovered == 0 in every cell
 *    (rolled-back and re-executed VPCs are bit-exact, and an
 *    exhausted ladder restores pre-batch bytes rather than leaving
 *    corruption);
 *  - the ladder earns its keep: at the mid-eta operating point the
 *    static baseline loses VPCs and, with the full ladder, at least
 *    90% of those losses are gone — recovered in place or (the
 *    bigger effect) prevented outright, because re-homing moves the
 *    operands off the dying track the baseline keeps failing on;
 *  - the journal is affordable: snapshot traffic accounts for at
 *    most 15% of the timed batch makespan.
 *
 * Every cell is deterministic in its config, so the table and JSON
 * report are identical at any STREAMPIM_JOBS and at any
 * campaign-internal engineJobs.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/executor.hh"
#include "core/fault_campaign.hh"
#include "parallel/sweep.hh"
#include "runtime/planner.hh"

using namespace streampim;
using namespace streampim::bench;

namespace
{

struct OperatingPoint
{
    const char *name;
    double endurance; //!< Weibull characteristic life (writes/track)
};

struct LadderVariant
{
    const char *name;
    bool enabled;
    unsigned retry;
    unsigned rehome;
    unsigned replan;
};

/**
 * Timed journal overhead: execute a representative out-of-core
 * matmul schedule with a recovery-flagged snapshot stream mirroring
 * the task-granular journal of the recoverable tiled dataflow
 * (core/tiled_matmul.cc): per k-slice task one pre-image of the
 * C-tile accumulator, plus the collected C rows on each tile's
 * final slice. Staged operand tiles and partials are NOT journaled
 * — they are re-staged from the backing store on every attempt, so
 * the journal only carries the irreplaceable bytes. Returns
 * recoveryTicks / makespan.
 */
double
timedSnapshotOverhead(double *makespan, double *recovery_ticks)
{
    const std::uint32_t dim = 512, tile = 128;
    SystemConfig cfg;
    Planner planner(cfg);
    TilerConfig tiler;
    tiler.tileEdge = tile;
    planner.setTilerConfig(tiler);
    VpcSchedule sched = planner.planTiledMatmul(dim, dim, dim);

    // One accumulator pre-image (tile x tile bytes, the
    // device holds 1-byte partial sums) per k-slice task, one more
    // per (i, j) tile for the collected C rows.
    const std::uint64_t acc_bytes =
        std::uint64_t(tile) * tile;
    const std::uint64_t ij_tiles =
        std::uint64_t(dim / tile) * (dim / tile);
    const std::uint64_t snapshot_bytes =
        planner.stats().tileTasks * acc_bytes +
        ij_tiles * acc_bytes;

    // Pre-images stream from the write sites (the compute set) to
    // journal space in the staging set, round-robin.
    const auto &compute = planner.computeSet();
    const auto &staging = planner.stagingSet();
    std::vector<std::pair<std::uint32_t, std::uint32_t>> moves;
    for (std::size_t i = 0; i < compute.size(); ++i)
        moves.push_back({compute[i], staging[i % staging.size()]});
    const std::uint64_t per_move =
        (snapshot_bytes + moves.size() - 1) / moves.size();
    planner.planRecovery(moves, per_move)
        .forEachBatch([&sched](std::uint32_t, const VpcBatch &b) {
            sched.push(b);
        });

    Executor exec(cfg);
    ExecutionReport rep = exec.run(sched);
    *makespan = double(rep.makespan);
    *recovery_ticks = double(rep.breakdown.recoveryTicks);
    return *recovery_ticks / *makespan;
}

double
recoveredFraction(const SweepCellResult &c)
{
    const double failed = c.metrics.at("failed");
    if (failed == 0.0)
        return 1.0;
    return c.metrics.at("recovered") / failed;
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("Ablation: transactional VPC recovery — journaled "
                "rollback and the\nretry / re-home / re-plan "
                "escalation ladder vs terminal Failed\n\n");

    const std::vector<LadderVariant> variants = {
        {"off", false, 2, 1, 1},
        {"retry", true, 2, 0, 0},
        {"rehome", true, 2, 1, 0},
        {"full", true, 2, 1, 1},
    };
    const std::vector<OperatingPoint> points = {
        {"eta400", 400.0},
        {"eta500", 500.0},
        {"eta600", 600.0},
    };
    const char *mid_eta = "eta500";
    const unsigned rounds = 40;

    SweepRunner sweep("abl_recovery", argc, argv);
    for (const auto &v : variants)
        for (const auto &pt : points) {
            EnduranceCampaignConfig cfg;
            // Shift faults off: every ladder entry is wear-driven.
            cfg.base.pStep = 0.0;
            cfg.base.pWrite0 = 1e-4;
            cfg.base.writeEndurance = pt.endurance;
            cfg.base.weibullShape = 6.0;
            cfg.base.redepositRetryBudget = 3;
            cfg.base.remapAfterExhaustions = 1;
            cfg.base.spareTracks = 0;
            cfg.rounds = rounds;
            // One sample path per column: the seed depends on the
            // operating point only, never on the ladder row.
            cfg.base.seed =
                0x7ec0feeULL ^ std::uint64_t(pt.endurance);
            cfg.recovery.enabled = v.enabled;
            cfg.recovery.retryBudget = v.retry;
            cfg.recovery.rehomeBudget = v.rehome;
            cfg.recovery.replanBudget = v.replan;
            sweep.add(v.name, pt.name, [cfg] {
                auto res = runEnduranceCampaign(cfg);
                SweepCellResult cell;
                cell.value = double(res.recovered);
                cell.metrics["clean"] = res.clean;
                cell.metrics["failed"] = res.failed;
                cell.metrics["mismatched_recovered"] =
                    res.mismatchedRecovered;
                cell.metrics["recovered"] = double(res.recovered);
                cell.metrics["recovered_retry"] =
                    double(res.recoveredByRetry);
                cell.metrics["recovered_rehome"] =
                    double(res.recoveredByRehome);
                cell.metrics["recovered_replan"] =
                    double(res.recoveredByReplan);
                cell.metrics["unrecoverable"] =
                    double(res.unrecoverable);
                cell.metrics["first_failed_round"] =
                    double(res.firstFailedRound);
                cell.metrics["first_failed_writes"] =
                    double(res.firstFailedDeposits);
                cell.metrics["first_lost_round"] =
                    double(res.firstUnrecoverableRound);
                cell.metrics["first_lost_program_writes"] =
                    double(res.firstUnrecoverableProgramDeposits);
                cell.metrics["snapshots"] =
                    double(res.recoveryStats.snapshots);
                cell.metrics["snapshot_bytes"] =
                    double(res.recoveryStats.snapshotBytes);
                cell.metrics["rollbacks"] =
                    double(res.recoveryStats.rollbacks);
                cell.metrics["rollback_bytes"] =
                    double(res.recoveryStats.rollbackBytes);
                cell.metrics["retries"] =
                    double(res.recoveryStats.retries);
                cell.metrics["rehomes"] =
                    double(res.recoveryStats.rehomes);
                cell.metrics["replans"] =
                    double(res.recoveryStats.replans);
                cell.metrics["recovery_writes"] =
                    double(res.recoveryDeposits);
                cell.metrics["deposit_pulses"] =
                    double(res.stats.depositPulses);
                // Reserved perf metric: committed deposit pulses
                // are the functional unit of work.
                cell.metrics["functional_ops"] =
                    double(res.stats.depositPulses);
                return cell;
            });
        }
    sweep.run();

    bool invariant_ok = true;
    bool recovered_ok = true;
    unsigned baseline_failures = 0;
    for (const auto &pt : points) {
        std::printf("characteristic life %s (%.0f writes/track, "
                    "shape 6, no spares):\n",
                    pt.name, pt.endurance);
        Table t({"ladder", "failed", "recovered", "frac",
                 "retry/rehome/replan", "lost", "saved vs off",
                 "rollback B", "1st lost round"});
        const double off_failed =
            sweep.cell("off", pt.name).metrics.at("failed");
        for (const auto &v : variants) {
            const auto &c = sweep.cell(v.name, pt.name);
            if (c.metrics.at("mismatched_recovered") != 0.0)
                invariant_ok = false;
            const bool survived =
                c.metrics.at("first_lost_round") < 0.0;
            // The ladder saves VPCs two ways: recovering a Failed
            // one in place, and preventing downstream failures by
            // re-homing operands off the dying track. The saved
            // score charges both against the baseline's losses
            // (every row replays the baseline's fault stream).
            const double saved =
                off_failed == 0.0
                    ? 1.0
                    : 1.0 - c.metrics.at("unrecoverable") /
                                off_failed;
            t.addRow(
                {v.name, fmt(c.metrics.at("failed"), 0),
                 fmt(c.metrics.at("recovered"), 0),
                 fmt(recoveredFraction(c), 3),
                 fmt(c.metrics.at("recovered_retry"), 0) + "/" +
                     fmt(c.metrics.at("recovered_rehome"), 0) + "/" +
                     fmt(c.metrics.at("recovered_replan"), 0),
                 fmt(c.metrics.at("unrecoverable"), 0),
                 fmt(saved, 3),
                 fmt(c.metrics.at("rollback_bytes"), 0),
                 survived
                     ? std::string("-")
                     : fmt(c.metrics.at("first_lost_round"), 0)});
        }
        t.print();
        if (sweep.cell("off", pt.name).metrics.at("failed") > 0.0)
            ++baseline_failures;
        std::printf("\n");
    }

    // The headline gate: where the static baseline loses VPCs at
    // the mid-eta point, the full ladder must leave at most 10% of
    // them lost — saved either by in-place recovery or by the
    // re-home/re-plan rungs preventing the repeat failures the
    // baseline keeps taking on the same dying track.
    const auto &mid_off = sweep.cell("off", mid_eta);
    const auto &mid_full = sweep.cell("full", mid_eta);
    const double mid_baseline_lost = mid_off.metrics.at("failed");
    const double mid_fraction =
        mid_baseline_lost == 0.0
            ? 1.0
            : 1.0 - mid_full.metrics.at("unrecoverable") /
                        mid_baseline_lost;
    if (mid_baseline_lost == 0.0 || mid_fraction < 0.9)
        recovered_ok = false;

    std::printf("%s: every cell kept mismatchedRecovered == 0 — "
                "recovered VPCs bit-exact,\nexhausted ladders rolled "
                "back to pre-batch bytes.\n",
                invariant_ok ? "invariant held"
                             : "INVARIANT VIOLATED");
    std::printf("%s: at %s the baseline lost %.0f VPC(s); with the "
                "full ladder %.1f%% of them\nare no longer lost "
                "(need >= 90%% of a nonzero baseline; baseline "
                "failed on %u/%zu operating points).\n",
                recovered_ok ? "ladder saved the baseline's losses"
                             : "RECOVERED-FRACTION GATE VIOLATED",
                mid_eta, mid_baseline_lost, mid_fraction * 100.0,
                baseline_failures, points.size());

    double makespan = 0.0, recovery_ticks = 0.0;
    const double overhead =
        timedSnapshotOverhead(&makespan, &recovery_ticks);
    const bool overhead_ok = overhead <= 0.15;
    std::printf("%s: journaling the accumulator pre-images of a "
                "512^3 out-of-core matmul costs\n%.0f of %.0f ticks "
                "(%.2f%% of makespan, gate <= 15%%).\n",
                overhead_ok ? "snapshot overhead affordable"
                            : "SNAPSHOT OVERHEAD GATE VIOLATED",
                recovery_ticks, makespan, overhead * 100.0);

    // Opt-in (STREAMPIM_PERF_REF=1): serial reference timing +
    // byte-identity re-check of every cell.
    sweep.measureSerialReference();
    printPerf("deposit pulses", sweep.functionalOps(),
              sweep.wallSeconds());
    sweep.note("rounds_per_cell", rounds);
    sweep.note("cell_unit", "recovered_vpcs");
    sweep.note("mid_eta_saved_fraction", mid_fraction);
    sweep.note("snapshot_overhead_ratio", overhead);
    sweep.note("timed_makespan_ticks", makespan);
    sweep.note("timed_recovery_ticks", recovery_ticks);
    sweep.note("invariant_held", invariant_ok ? 1.0 : 0.0);
    sweep.note("recovered_fraction_gate",
               recovered_ok ? 1.0 : 0.0);
    sweep.note("snapshot_overhead_gate", overhead_ok ? 1.0 : 0.0);
    sweep.writeReport();
    return invariant_ok && recovered_ok && overhead_ok ? 0 : 1;
}
