/**
 * @file
 * FaultCampaign: deterministic end-to-end shift-fault injection
 * campaigns over the functional StreamPimSystem.
 *
 * One campaign cell builds two systems with identical geometry and
 * identical seeded input data: a golden system that executes a VPC
 * program fault-free, and a faulty system that executes the same
 * program with a FaultInjector attached to every subarray datapath
 * (nanowire shifts, bus segment pulses, mat deposits, processor
 * operand ingest). After both runs the cell compares every VPC's
 * destination bytes:
 *
 *  - a VPC whose FaultStatus is not Failed must be bit-exact
 *    against the golden run (the two-tier detection model makes
 *    every surviving misalignment visible at a checkpoint, so
 *    coverage < 1 can escalate but never silently corrupt);
 *  - Failed VPCs are allowed to differ — their corruption is
 *    visible to the host through VpcExecutionRecord::fault.
 *
 * The program uses disjoint destination slices fed only from a
 * read-only input region, so a Failed VPC cannot cascade into the
 * comparison of its neighbours. Everything is seeded: the same
 * FaultCampaignConfig always produces the same result, regardless
 * of sweep parallelism.
 *
 * There is one protocol, runEnduranceCampaign's round loop:
 * runFaultCampaign is its one-round case, and the two fleet drivers
 * run a single-device driver once per device.
 */

#ifndef STREAMPIM_CORE_FAULT_CAMPAIGN_HH_
#define STREAMPIM_CORE_FAULT_CAMPAIGN_HH_

#include <cstdint>
#include <vector>

#include "core/stream_pim.hh"
#include "rm/fault_injector.hh"
#include "runtime/health_policy.hh"
#include "runtime/recovery.hh"

namespace streampim
{

/** One campaign cell's knobs (all deterministic inputs). */
struct FaultCampaignConfig
{
    /** Per-domain-step fault probability of the faulty run. */
    double pStep = 1e-4;
    /** In-flight guard-check detection coverage. */
    double guardCoverage = 0.999;
    /** Guard domains per segment. */
    unsigned guardDomains = 2;
    /** Realignment attempts per episode before escalation. */
    unsigned realignRetryBudget = 4;
    /** Bus segment size (must divide the small geometry's 512). */
    unsigned busSegmentSize = 128;
    /** VPCs in the campaign program (Add/Smul/Mul/Tran mix;
     * 1..128, fatal() otherwise). */
    unsigned vpcs = 12;
    /** Elements per VPC (1..48 so slices stay disjoint). */
    std::uint32_t vectorLen = 48;
    /** Master seed: drives input data and per-subarray injectors. */
    std::uint64_t seed = 0x5eed;

    // --- Write/endurance faults (rm/endurance.hh) ---
    /** Wear-independent nucleation failure floor (0 disables). */
    double pWrite0 = 0.0;
    /** Weibull characteristic life in writes per save track. */
    double writeEndurance = 1e6;
    /** Weibull shape (>= 1: wear-out regime). */
    double weibullShape = 2.0;
    /** Re-deposit attempts per commit before the episode gives up. */
    unsigned redepositRetryBudget = 3;
    /** Budget exhaustions before a track is retired onto a spare. */
    unsigned remapAfterExhaustions = 1;
    /** Spare save tracks per mat (0 = no remapping headroom). */
    unsigned spareTracks = 4;

    /**
     * Worker threads for the dependency-aware parallel VPC engine
     * inside each processQueue() (0 = STREAMPIM_JOBS / hardware
     * concurrency, 1 = inline). Results are byte-identical at any
     * value — the knob only changes wall-clock.
     */
    unsigned engineJobs = 0;
};

/**
 * Outcome tally of a campaign's verified VPCs — the one place a
 * VPC's (status, lost, bit-exact) verdict is counted. Every campaign
 * result, single-device or fleet, inherits it, and a fleet's tally
 * is the += of its devices' tallies.
 */
struct StatusTally
{
    /** Pre-recovery FaultStatus counts. @{ */
    unsigned clean = 0;
    unsigned corrected = 0;
    unsigned retried = 0;
    unsigned failed = 0;
    /** @} */
    /** Failed VPCs the recovery ladder returned to a bit-exact
     * state (always zero with recovery disabled). */
    unsigned recovered = 0;
    /** Failed VPCs that stayed lost after every budget (equals
     * `failed` with recovery disabled). */
    unsigned unrecoverable = 0;
    /** VPCs not lost whose destination differs from golden — the
     * recovery invariant requires this to be zero. */
    unsigned mismatchedRecovered = 0;
    /** Lost VPCs whose destination still matches golden (the
     * escalation was conservative). */
    unsigned failedButIntact = 0;

    /**
     * Count one verified VPC: its pre-recovery @p status, whether it
     * stayed @p lost after the recovery ladder (only a Failed VPC
     * can be), and whether its destination is bit-exact against the
     * golden run.
     */
    void count(FaultStatus status, bool lost, bool exact);

    StatusTally &operator+=(const StatusTally &other);

    /** The end-to-end recovery invariant held for every VPC. */
    bool invariantHolds() const { return mismatchedRecovered == 0; }
};

/** Outcome of one VPC in the campaign. */
struct FaultCampaignVpc
{
    Vpc vpc;
    std::uint32_t resultLen = 0;
    FaultStatus status = FaultStatus::Clean;
    VpcFaultInfo fault;
    /** Destination bytes match the golden run bit-exactly. */
    bool bitExact = true;
};

/** Aggregate outcome of one campaign cell. */
struct FaultCampaignResult : StatusTally
{
    /** Sampled-fault statistics of the faulty system. */
    FaultStats stats;
    /** Final SMART-style per-bank health of the faulty system. */
    std::vector<BankHealth> health;
    /** Per-VPC details, in program order. */
    std::vector<FaultCampaignVpc> perVpc;

    unsigned vpcs() const { return unsigned(perVpc.size()); }
};

/**
 * A lifetime (endurance) campaign: the FaultCampaignConfig program
 * repeated for several rounds on ONE persistent pair of systems, so
 * save-track wear accumulates across rounds and the Weibull hazard
 * climbs until re-deposit budgets exhaust, spares absorb the worn
 * tracks, and — once the pools drain — VPCs start to Fail. Between
 * rounds the faulty system's injection is disabled for the
 * verification readout and resumed (same RNG streams) afterwards,
 * so the whole run is one deterministic sample path.
 */
struct EnduranceCampaignConfig
{
    /** Per-round program + fault knobs (write faults usually on,
     * shift faults usually off so failures are endurance-driven). */
    FaultCampaignConfig base;
    /** Program repetitions (1..512); wear carries over between
     * rounds. */
    unsigned rounds = 8;
    /**
     * Closed-loop health policy (runtime/health_policy.hh). With
     * adaptive.enabled == false (default) the campaign is exactly
     * the historical open-loop run: placement fixed at round 0,
     * device driven until tracks fail. Enabled, a HealthPolicy
     * consumes bankHealth()/wearSummaries() snapshots between
     * rounds at adaptive.cadence, re-ranks the subarrays by wear,
     * migrates the live input regions off
     * spare-starved banks (TRAN copies executed on BOTH systems
     * with injection resumed, so migration wear is real and the
     * pair stays on one deterministic sample path), and
     * quarantines spare-exhausted subarrays out of the home and
     * target sets. Deposit pulses spent on migration are tracked
     * separately so lifetime comparisons measure useful work.
     */
    HealthPolicyConfig adaptive;

    /**
     * Transactional recovery ladder (runtime/recovery.hh). With
     * recovery.enabled == false (default) a Failed VPC stays
     * terminal — the historical behaviour, bit-for-bit. Enabled,
     * each round's batch is journaled (pre-batch snapshots of every
     * write region) and Failed VPCs run the bounded escalation
     * ladder with injection attached: retry in place, re-home the
     * blamed operand region onto a strictly-healthier subarray
     * (fault-free controller copies on BOTH systems, so the golden
     * sibling keeps carrying the reference bytes at the new home),
     * then quarantine-and-re-plan. Only exhausted budgets surface
     * `unrecoverable` — rolled back to pre-batch bytes, never
     * silently corrupt. `failed`/`firstFailed*` keep their
     * PRE-recovery meaning; the post-ladder truth lands in
     * `recovered`/`unrecoverable`/`firstUnrecoverable*`.
     */
    RecoveryConfig recovery;
};

/** One round's outcome inside an endurance campaign. */
struct EnduranceRound
{
    unsigned failed = 0;       //!< Failed VPCs this round
    unsigned remaps = 0;       //!< tracks retired this round
    std::uint64_t redeposits = 0;
    /** Cumulative sampled deposit pulses at round end. */
    std::uint64_t depositPulses = 0;

    // --- Health trajectory (summarizeBankHealth inputs), sampled
    // --- at round end so campaign JSON can plot degradation
    // --- curves instead of a single final-state snapshot.
    /** Device-total spare save tracks still unused. */
    unsigned remainingSpares = 0;
    /** Device-total spare pool size (constant per campaign). */
    unsigned sparesTotal = 0;
    /** Worst live save-track wear across all banks. */
    std::uint64_t maxWear = 0;
    /** Full per-bank SMART snapshot at round end. */
    std::vector<BankHealth> health;

    // --- Closed-loop policy actions taken AFTER this round.
    unsigned migrations = 0;       //!< operand moves that landed
    unsigned migrationFailed = 0;  //!< migration TRANs that Failed
    /** Deposit pulses spent executing this round's migrations. */
    std::uint64_t migrationDeposits = 0;
    unsigned newlyQuarantined = 0; //!< subarrays retired this round

    // --- Recovery-ladder actions DURING this round (all zero when
    // --- recovery is disabled; `failed` above stays pre-recovery).
    unsigned recoveredVpcs = 0;     //!< Failed VPCs the ladder saved
    unsigned unrecoverableVpcs = 0; //!< budgets exhausted, surfaced
    /** Deposit pulses spent on this round's ladder (rollback writes
     * are fault-free and thus wear-only; these are the sampled
     * pulses of re-executions). */
    std::uint64_t recoveryDeposits = 0;
};

/**
 * Aggregate outcome of one endurance campaign. The tally counts
 * every VPC of every round; `mismatchedRecovered` also counts
 * non-Failed migrations whose copy differs from golden.
 */
struct EnduranceCampaignResult : StatusTally
{
    /** Global sequence index (round * vpcs + i) of the first Failed
     * VPC, or -1 when every VPC survived. */
    long firstFailedVpc = -1;
    long firstFailedRound = -1;
    /** Sampled deposit pulses committed up to and including the
     * first Failed VPC — the write volume the device survived. */
    std::uint64_t firstFailedDeposits = 0;
    /** firstFailedDeposits minus the pulses spent on health-policy
     * migrations: the *useful-work* write volume survived. The
     * adaptive-vs-static lifetime gates compare this so migration
     * overhead can never inflate the adaptive score. */
    std::uint64_t firstFailedProgramDeposits = 0;
    /** Final sampled-fault statistics of the faulty system. */
    FaultStats stats;
    /** Final per-subarray wear summaries of the faulty system. */
    std::vector<SubarrayWear> wear;
    /** Final SMART-style per-bank health of the faulty system. */
    std::vector<BankHealth> health;
    std::vector<EnduranceRound> perRound;

    // --- Closed-loop policy summary (all zero when static). ---
    unsigned policyEvaluations = 0;
    unsigned migrations = 0;      //!< operand moves that landed
    unsigned migrationFailed = 0; //!< migration TRANs that Failed
    std::uint64_t migrationBytes = 0;
    /** Deposit pulses spent on migrations across the campaign. */
    std::uint64_t migrationDeposits = 0;
    unsigned quarantinedSubarrays = 0;
    /** Where each live operand region ended up (subarray ids;
     * {0, 1} when nothing migrated). */
    std::vector<std::uint32_t> finalHomes;

    // --- Recovery-ladder summary. With recovery disabled,
    // --- recovered* stay zero and unrecoverable/firstUnrecoverable*
    // --- mirror failed/firstFailed* (every Failed VPC is lost).
    /** `recovered`, split by the rung that saved the VPC. @{ */
    unsigned recoveredByRetry = 0;
    unsigned recoveredByRehome = 0;
    unsigned recoveredByReplan = 0;
    /** @} */
    /** Ladder-internal counters (snapshots, rollbacks, ...). */
    RecoveryStats recoveryStats;
    /**
     * The honest lifetime metric under recovery: the first VPC the
     * device actually LOST (post-ladder), not merely the first that
     * needed the ladder. -1 when nothing was unrecoverable. With
     * recovery disabled these mirror firstFailed* exactly.
     */
    long firstUnrecoverableVpc = -1;
    long firstUnrecoverableRound = -1;
    std::uint64_t firstUnrecoverableDeposits = 0;
    /** ... minus migration + recovery pulses: useful-work volume. */
    std::uint64_t firstUnrecoverableProgramDeposits = 0;
    /** Deposit pulses spent on the ladder across the campaign. */
    std::uint64_t recoveryDeposits = 0;

    unsigned rounds() const { return unsigned(perRound.size()); }
};

/**
 * Run one endurance campaign — the one golden/faulty campaign
 * protocol: stage both systems, then per round submit the program to
 * both, drain, run the recovery ladder (when enabled), read every
 * destination back with injection detached, tally, and apply the
 * health policy between rounds. Deterministic in @p cfg.
 */
EnduranceCampaignResult
runEnduranceCampaign(const EnduranceCampaignConfig &cfg);

/**
 * Run one campaign cell: runEnduranceCampaign's protocol for a single
 * round with the recovery ladder and the health policy off, plus the
 * per-VPC details of that round. Deterministic in @p cfg.
 */
FaultCampaignResult runFaultCampaign(const FaultCampaignConfig &cfg);

/**
 * Aggregate outcome of one fleet campaign: D independent devices,
 * each a full single-device campaign. The tally and `stats` are the
 * sums over perDevice.
 */
struct ShardedFaultCampaignResult : StatusTally
{
    /** Full per-device campaign results, in device order. */
    std::vector<FaultCampaignResult> perDevice;
    /** Sampled-fault statistics merged over the faulty fleet. */
    FaultStats stats;

    unsigned devices() const { return unsigned(perDevice.size()); }
};

/**
 * Fleet campaign: run @p cfg once per device of a @p devices fleet
 * (1..Config::kMaxDevices), fanned across the device-level pool.
 * Device d runs runFaultCampaign with seed
 * ShardedSystem::deviceSeed(seed, d) — inputs and injectors alike —
 * so perDevice[0] reproduces the single-device run bit-exact and
 * each device's path is invariant under fleet resizing.
 * @p deviceJobs is the device-level fan-out and the config's
 * engineJobs the inner level (both 0 = derive the split;
 * ShardedSystem::resolveSplit); results are byte-identical at any
 * (deviceJobs x engineJobs).
 */
ShardedFaultCampaignResult
runShardedFaultCampaign(const FaultCampaignConfig &cfg,
                        unsigned devices, unsigned deviceJobs = 0);

} // namespace streampim

#endif // STREAMPIM_CORE_FAULT_CAMPAIGN_HH_
