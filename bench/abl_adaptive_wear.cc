/**
 * @file
 * Ablation — closed-loop wear management (runtime/health_policy.hh)
 * versus the open-loop static placement of abl_endurance.
 *
 * Each cell runs an EnduranceCampaign on ONE deterministic sample
 * path per operating point (the seed is a function of eta only, so
 * every policy variant in a column replays the same fault stream up
 * to the point where its decisions diverge). The sweep crosses the
 * policy knobs (rows: static, adaptive at cadence 1 and 4 with
 * quarantine, adaptive with quarantine disabled) against Weibull
 * characteristic-life operating points (columns). Adaptive cells
 * snapshot bankHealth()/wearSummaries() between rounds, re-rank
 * the subarrays by wear, proactively migrate the live operands off
 * subarrays whose worst track crossed 1.5 x eta (the leading
 * indicator — the per-mat spare pool is a cliff, not a slope, at
 * shape 6), and quarantine subarrays with an exhausted mat so they
 * are never migration targets.
 *
 * Three properties are asserted (nonzero exit on violation):
 *  - the recovery invariant: every VPC not marked Failed is
 *    bit-exact against its golden twin, including migrated operand
 *    regions and everything after a quarantine re-plan;
 *  - lifetime extends by a margin: on every operating point where
 *    the static policy fails, the full adaptive policy (cadence 1,
 *    quarantine on) first fails after at least kLifetimeMargin
 *    times as many PROGRAM deposit pulses, and strictly more
 *    (migration traffic is accounted separately and cannot inflate
 *    the score; surviving the whole campaign counts as a later
 *    failure);
 *  - the claim is non-vacuous: the static baseline must fail on at
 *    least two operating points.
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
#include "core/fault_campaign.hh"
#include "core/report.hh"
#include "parallel/sweep.hh"

using namespace streampim;
using namespace streampim::bench;

namespace
{

/** Least first-failure program-write ratio of cad1 over static. */
constexpr double kLifetimeMargin = 1.5;

struct OperatingPoint
{
    const char *name;
    double endurance; //!< Weibull characteristic life (writes/track)
};

struct PolicyVariant
{
    const char *name;
    bool enabled;
    unsigned cadence;
    bool quarantine;
};

/** First-failure program-deposit volume, "never failed" = infinity. */
double
lifetimeProgramDeposits(const SweepCellResult &c)
{
    if (c.metrics.at("first_failed_round") < 0.0)
        return 1e30;
    return c.metrics.at("first_failed_program_writes");
}

std::string
pad2(unsigned v)
{
    return (v < 10 ? "0" : "") + std::to_string(v);
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("Ablation: closed-loop adaptive wear management "
                "(health-driven re-planning,\noperand migration and "
                "subarray quarantine) vs static placement\n\n");

    const std::vector<PolicyVariant> variants = {
        {"static", false, 1, true},
        {"cad1", true, 1, true},
        {"cad4", true, 4, true},
        {"noquar", true, 1, false},
    };
    const std::vector<OperatingPoint> points = {
        {"eta450", 450.0},
        {"eta600", 600.0},
    };
    const unsigned rounds = 60;

    SweepRunner sweep("abl_adaptive_wear", argc, argv);
    for (const auto &v : variants)
        for (const auto &pt : points) {
            EnduranceCampaignConfig cfg;
            // Shift faults off: every escalation is wear-driven.
            cfg.base.pStep = 0.0;
            cfg.base.pWrite0 = 1e-4;
            cfg.base.writeEndurance = pt.endurance;
            cfg.base.weibullShape = 6.0;
            cfg.base.redepositRetryBudget = 3;
            cfg.base.remapAfterExhaustions = 1;
            cfg.base.spareTracks = 4;
            cfg.rounds = rounds;
            // One sample path per column: the seed depends on the
            // operating point only, never on the policy row, so the
            // static and adaptive campaigns replay the identical
            // fault stream until their placements diverge.
            cfg.base.seed =
                0xadab7ULL ^ std::uint64_t(pt.endurance);
            cfg.adaptive.enabled = v.enabled;
            cfg.adaptive.cadence = v.cadence;
            cfg.adaptive.migrationSpareThreshold = 0;
            // Leading trigger: evacuate once the worst track passes
            // 1.5 x eta. At shape 6 the Weibull hazard is a cliff,
            // so the spare pool (the lagging signal) stays full
            // until the round everything dies.
            cfg.adaptive.migrationWearThreshold =
                std::uint64_t(pt.endurance * 1.5);
            cfg.adaptive.quarantine = v.quarantine;
            sweep.add(v.name, pt.name, [cfg] {
                auto res = runEnduranceCampaign(cfg);
                SweepCellResult cell;
                cell.value = double(res.firstFailedVpc);
                cell.metrics["clean"] = res.clean;
                cell.metrics["corrected"] = res.corrected;
                cell.metrics["retried"] = res.retried;
                cell.metrics["failed"] = res.failed;
                cell.metrics["mismatched_recovered"] =
                    res.mismatchedRecovered;
                cell.metrics["first_failed_round"] =
                    double(res.firstFailedRound);
                cell.metrics["first_failed_writes"] =
                    double(res.firstFailedDeposits);
                cell.metrics["first_failed_program_writes"] =
                    double(res.firstFailedProgramDeposits);
                cell.metrics["deposit_pulses"] =
                    double(res.stats.depositPulses);
                cell.metrics["write_faults_injected"] =
                    double(res.stats.writeFaultsInjected);
                cell.metrics["redeposits"] =
                    double(res.stats.redeposits);
                cell.metrics["track_remaps"] =
                    double(res.stats.trackRemaps);
                cell.metrics["policy_evaluations"] =
                    double(res.policyEvaluations);
                cell.metrics["migrations"] = double(res.migrations);
                cell.metrics["migrations_failed"] =
                    double(res.migrationFailed);
                cell.metrics["migration_bytes"] =
                    double(res.migrationBytes);
                cell.metrics["migration_writes"] =
                    double(res.migrationDeposits);
                cell.metrics["quarantined_subarrays"] =
                    double(res.quarantinedSubarrays);
                for (std::size_t i = 0; i < res.finalHomes.size();
                     ++i)
                    cell.metrics["final_home" + std::to_string(i)] =
                        double(res.finalHomes[i]);
                // Degradation trajectory: the lifetime curve the
                // policy acts on, one point per round.
                for (unsigned r = 0; r < res.rounds(); ++r) {
                    const EnduranceRound &rr = res.perRound[r];
                    const std::string p = "round" + pad2(r) + "_";
                    cell.metrics[p + "remaining_spares"] =
                        double(rr.remainingSpares);
                    cell.metrics[p + "max_wear"] =
                        double(rr.maxWear);
                    cell.metrics[p + "failed"] = double(rr.failed);
                    cell.metrics[p + "migrations"] =
                        double(rr.migrations);
                    cell.metrics[p + "quarantined"] =
                        double(rr.newlyQuarantined);
                }
                // Reserved perf metric: committed deposit pulses
                // are the functional unit of work.
                cell.metrics["functional_ops"] =
                    double(res.stats.depositPulses);
                return cell;
            });
        }
    sweep.run();

    bool invariant_ok = true;
    bool lifetime_ok = true;
    unsigned baseline_failures = 0;
    for (const auto &pt : points) {
        std::printf("characteristic life %s (%.0f writes/track, "
                    "shape 6, wear threshold %.0f):\n",
                    pt.name, pt.endurance, pt.endurance * 1.5);
        Table t({"policy", "failed", "1st fail round",
                 "1st fail program writes", "migr", "migr fail",
                 "migr writes", "quar", "evals"});
        for (const auto &v : variants) {
            const auto &c = sweep.cell(v.name, pt.name);
            if (c.metrics.at("mismatched_recovered") != 0.0)
                invariant_ok = false;
            const bool survived =
                c.metrics.at("first_failed_round") < 0.0;
            t.addRow(
                {v.name, fmt(c.metrics.at("failed"), 0),
                 survived ? std::string("-")
                          : fmt(c.metrics.at("first_failed_round"),
                                0),
                 survived
                     ? std::string("-")
                     : fmt(c.metrics.at(
                               "first_failed_program_writes"),
                           0),
                 fmt(c.metrics.at("migrations"), 0),
                 fmt(c.metrics.at("migrations_failed"), 0),
                 fmt(c.metrics.at("migration_writes"), 0),
                 fmt(c.metrics.at("quarantined_subarrays"), 0),
                 fmt(c.metrics.at("policy_evaluations"), 0)});
        }
        t.print();

        // Degradation curves: remaining spares per round, the
        // trajectory view (Gomez-Luna et al.) of the same data.
        for (const char *name : {"static", "cad1"}) {
            const auto &c = sweep.cell(name, pt.name);
            std::printf("%-7s spares:", name);
            for (unsigned r = 0; r < rounds; r += 6) {
                auto it = c.metrics.find("round" + pad2(r) +
                                         "_remaining_spares");
                if (it == c.metrics.end())
                    break;
                std::printf(" %3.0f", it->second);
            }
            std::printf("\n");
        }

        // The gate: wherever static placement dies inside the
        // campaign, the full adaptive policy must first-fail after
        // at least kLifetimeMargin times as many program deposits,
        // and strictly more.
        const auto &base = sweep.cell("static", pt.name);
        if (base.metrics.at("first_failed_round") >= 0.0) {
            ++baseline_failures;
            const double st = lifetimeProgramDeposits(base);
            const double ad =
                lifetimeProgramDeposits(sweep.cell("cad1", pt.name));
            if (!(ad > st && ad >= kLifetimeMargin * st))
                lifetime_ok = false;
        }
        std::printf("\n");
    }

    std::printf("%s: every VPC not marked Failed was bit-exact "
                "against its golden run,\nincluding migrated operand "
                "regions and post-quarantine placements.\n",
                invariant_ok ? "invariant held"
                             : "INVARIANT VIOLATED");
    lifetime_ok = lifetime_ok && baseline_failures >= 2;
    std::printf("%s: on every operating point where static "
                "placement failed (%u/%zu, need >= 2),\nthe adaptive "
                "policy first failed after >= %.1fx the program "
                "deposit pulses.\n",
                lifetime_ok ? "adaptive extended lifetime"
                            : "ADAPTIVE LIFETIME CLAIM VIOLATED",
                baseline_failures, points.size(), kLifetimeMargin);

    // Opt-in (STREAMPIM_PERF_REF=1): serial reference timing +
    // byte-identity re-check of every cell, recorded in the report's
    // perf section as the engine-speedup trajectory.
    sweep.measureSerialReference();
    printPerf("deposit pulses", sweep.functionalOps(),
              sweep.wallSeconds());
    sweep.note("rounds_per_cell", rounds);
    sweep.note("cell_unit", "first_failed_vpc_index");
    sweep.note("wear_threshold_factor", 1.5);
    sweep.note("invariant_held", invariant_ok ? 1.0 : 0.0);
    sweep.note("adaptive_extended_lifetime",
               lifetime_ok ? 1.0 : 0.0);
    sweep.writeReport();
    return invariant_ok && lifetime_ok ? 0 : 1;
}
