/**
 * @file
 * End-to-end shift-fault injection state for the functional datapath.
 *
 * The ShiftFaultModel (rm/fault.hh) describes fault statistics in
 * closed form; this header supplies the machinery that threads
 * *sampled* faults through the real datapath:
 * Nanowire::tryShift, the segmented RM bus, mat save/transfer-track
 * movement, and the RM processor's operand streaming all draw pulse
 * outcomes from one FaultInjector, and the subarray controller uses
 * the same object to model guard-domain detection and bounded
 * realign-retry (Sec. III-D segmentation bound + Sec. VI redundancy).
 *
 * Detection model (two tiers, both architecturally motivated):
 *  - In-flight guard checks (between shift pulses) succeed only with
 *    the configured coverage: they are cheap transverse senses of the
 *    guard pattern. A missed check does not lose information forever —
 *    misalignment is persistent wire state, so a later check can still
 *    catch it, at the price of an accumulated |error| that may exceed
 *    what the guard pattern can localize.
 *  - Checkpoint checks (at access ports / before a deposit commits /
 *    when a word leaves the bus) are exact: a misaligned guard pattern
 *    is directly visible in the sensed data. Consequently a VPC that
 *    finishes without being marked Failed is bit-exact; coverage < 1
 *    converts silent corruption into visible escalations, never into
 *    undetected wrong data.
 *
 * Recovery: a detected misalignment of |e| positions is realigned with
 * |e| compensating single-step shifts, each itself a fallible pulse.
 * Realignment episodes retry up to the configured budget; exhaustion,
 * or |e| beyond the guard's localization range (guardDomains - 1),
 * escalates the current VPC to FaultStatus::Failed.
 *
 * Write/endurance faults (rm/endurance.hh) ride the same escalation
 * ladder: every deposit commit on a save track is a fallible
 * nucleation whose failure probability grows with the track's
 * accumulated wear (Weibull hazard over the per-track write count
 * kept by Mat). Detection is at the deposit-commit exact checkpoint
 * (the written domain is sensed back), recovery is a bounded
 * re-deposit retry episode, and a track that exhausts its budget is
 * retired onto a spare by the mat's remap table — the VPC escalates
 * to Failed only when the spare pool is exhausted too.
 */

#ifndef STREAMPIM_RM_FAULT_INJECTOR_HH_
#define STREAMPIM_RM_FAULT_INJECTOR_HH_

#include <cstdint>

#include "common/log.hh"
#include "common/rng.hh"
#include "rm/endurance.hh"
#include "rm/fault.hh"

namespace streampim
{

/** Per-VPC outcome of fault recovery, worst case over all pulses. */
enum class FaultStatus : std::uint8_t
{
    Clean,     //!< no fault occurred
    Corrected, //!< faults occurred; every realignment succeeded first try
    Retried,   //!< some realignment needed extra attempts (all succeeded)
    Failed,    //!< retry budget exhausted or error beyond guard range
};

/** Knobs of one fault-injection session. */
struct FaultConfig
{
    /** Per-domain-step fault probability (0 disables injection). */
    double pStep = 0.0;
    /** Fraction of faults that over-shift (rest under-shift). */
    double overFraction = 0.5;
    /** Detection probability of one in-flight guard check. */
    double guardCoverage = 0.999;
    /** Guard domains per segment; localizes errors up to this - 1. */
    unsigned guardDomains = 2;
    /** Realign attempts per episode before escalating to Failed. */
    unsigned realignRetryBudget = 4;
    /** RNG seed; campaigns derive one seed per cell/subarray. */
    std::uint64_t seed = 0x5eed;

    // --- Write/endurance faults (rm/endurance.hh) ---
    /** Wear-independent nucleation failure floor (0 disables). */
    double pWrite0 = 0.0;
    /** Weibull characteristic life in writes per track. */
    double writeEndurance = 1e6;
    /** Weibull shape (>= 1: wear-out regime). */
    double weibullShape = 2.0;
    /** Re-deposit attempts per commit before the episode gives up. */
    unsigned redepositRetryBudget = 3;
    /** Budget exhaustions on one physical track before the
     * controller retires it onto a spare (1 = remap immediately, so
     * the spare pool can still save the current VPC). */
    unsigned remapAfterExhaustions = 1;

    /** Bad knobs are caller input: fatal() with a message. */
    void
    validate() const
    {
        if (!(pStep >= 0.0 && pStep < 1.0))
            SPIM_FATAL("step fault probability out of range: ", pStep);
        if (!(guardCoverage > 0.0 && guardCoverage <= 1.0))
            SPIM_FATAL("guard coverage out of range: ", guardCoverage);
        if (guardDomains < 2)
            SPIM_FATAL("need at least 2 guard domains, got ",
                       guardDomains);
        if (realignRetryBudget < 1)
            SPIM_FATAL("realign retry budget must be >= 1");
        if (!(pWrite0 >= 0.0 && pWrite0 < 1.0))
            SPIM_FATAL("write fault floor out of range: ", pWrite0);
        if (!(writeEndurance > 0.0))
            SPIM_FATAL("write endurance must be > 0");
        if (!(weibullShape >= 1.0))
            SPIM_FATAL("Weibull shape must be >= 1");
        if (redepositRetryBudget < 1)
            SPIM_FATAL("re-deposit retry budget must be >= 1");
        if (remapAfterExhaustions < 1)
            SPIM_FATAL("remap threshold must be >= 1");
    }
};

/** Lifetime counters of one injector (all sampled, not expected). */
struct FaultStats
{
    std::uint64_t pulses = 0;           //!< fallible pulses sampled
    std::uint64_t faultsInjected = 0;   //!< over- + under-shifts
    std::uint64_t overShifts = 0;
    std::uint64_t underShifts = 0;
    std::uint64_t guardChecks = 0;      //!< in-flight + checkpoint senses
    std::uint64_t checksMissed = 0;     //!< in-flight checks that missed
    std::uint64_t correctionShifts = 0; //!< compensating single steps
    std::uint64_t realignRetries = 0;   //!< episodes needing a 2nd+ try
    std::uint64_t uncorrectable = 0;    //!< |error| beyond guard range
    std::uint64_t budgetExhausted = 0;  //!< realign episodes given up
    std::uint64_t clampedAtWireEnd = 0; //!< faulty travel hit the wire end
    std::uint64_t overtravelInterlocks = 0; //!< illegal intent pinned, not aborted

    // --- Write/endurance counters ---
    std::uint64_t depositPulses = 0;      //!< sampled deposit commits
    std::uint64_t writeFaultsInjected = 0; //!< nucleations that failed
    std::uint64_t redeposits = 0;         //!< re-driven deposit pulses
    std::uint64_t redepositExhausted = 0; //!< episodes out of budget
    std::uint64_t trackRemaps = 0;        //!< tracks retired to spares
    std::uint64_t remapCopyBytes = 0;     //!< bytes migrated by remaps
    std::uint64_t writeFailures = 0;      //!< commits lost for good

    bool operator==(const FaultStats &) const = default;

    /** Fold another injector's counters in (system aggregation). */
    void
    merge(const FaultStats &o)
    {
        pulses += o.pulses;
        faultsInjected += o.faultsInjected;
        overShifts += o.overShifts;
        underShifts += o.underShifts;
        guardChecks += o.guardChecks;
        checksMissed += o.checksMissed;
        correctionShifts += o.correctionShifts;
        realignRetries += o.realignRetries;
        uncorrectable += o.uncorrectable;
        budgetExhausted += o.budgetExhausted;
        clampedAtWireEnd += o.clampedAtWireEnd;
        overtravelInterlocks += o.overtravelInterlocks;
        depositPulses += o.depositPulses;
        writeFaultsInjected += o.writeFaultsInjected;
        redeposits += o.redeposits;
        redepositExhausted += o.redepositExhausted;
        trackRemaps += o.trackRemaps;
        remapCopyBytes += o.remapCopyBytes;
        writeFailures += o.writeFailures;
    }
};

/** Counters + escalation status attributed to one VPC. */
struct VpcFaultInfo
{
    FaultStatus status = FaultStatus::Clean;
    std::uint64_t faultsInjected = 0;
    std::uint64_t faultsCorrected = 0;
    std::uint64_t correctionShifts = 0;
    std::uint64_t realignRetries = 0;
    std::uint64_t guardChecks = 0;
    std::uint64_t depositPulses = 0;      //!< incl. re-deposits
    std::uint64_t writeFaultsInjected = 0;
    std::uint64_t redeposits = 0;
    std::uint64_t trackRemaps = 0;

    /** Fold another record in (cross-subarray VPC attribution). */
    void
    merge(const VpcFaultInfo &o)
    {
        if (static_cast<int>(o.status) > static_cast<int>(status))
            status = o.status;
        faultsInjected += o.faultsInjected;
        faultsCorrected += o.faultsCorrected;
        correctionShifts += o.correctionShifts;
        realignRetries += o.realignRetries;
        guardChecks += o.guardChecks;
        depositPulses += o.depositPulses;
        writeFaultsInjected += o.writeFaultsInjected;
        redeposits += o.redeposits;
        trackRemaps += o.trackRemaps;
    }
};

/**
 * The sampled-fault source shared by every component of one
 * subarray's datapath. Not thread-safe: one injector belongs to one
 * subarray, and campaign cells each own their system instance.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &cfg)
        : cfg_(cfg), model_(cfg.pStep, cfg.overFraction),
          writeModel_(cfg.pWrite0, cfg.writeEndurance,
                      cfg.weibullShape),
          rng_(cfg.seed)
    {
        cfg_.validate();
    }

    const FaultConfig &config() const { return cfg_; }
    const ShiftFaultModel &model() const { return model_; }
    const FaultStats &stats() const { return stats_; }

    /** True when pStep > 0; hooks may skip sampling otherwise. */
    bool enabled() const { return cfg_.pStep > 0.0; }

    /** True when pWrite0 > 0: deposit commits sample nucleation. */
    bool writeFaultsEnabled() const { return writeModel_.enabled(); }

    /** Any fault class active (shift or write). */
    bool anyEnabled() const { return enabled() || writeFaultsEnabled(); }

    /** Largest |misalignment| the guard pattern can localize. */
    unsigned
    maxCorrectable() const
    {
        return cfg_.guardDomains - 1;
    }

    /** Sample one fallible pulse of @p steps domain positions. */
    ShiftOutcome
    samplePulse(unsigned steps)
    {
        stats_.pulses++;
        ShiftOutcome out = model_.samplePulse(rng_, steps);
        switch (out) {
          case ShiftOutcome::Exact:
            break;
          case ShiftOutcome::OverShift:
            stats_.faultsInjected++;
            stats_.overShifts++;
            noteInjected();
            break;
          case ShiftOutcome::UnderShift:
            stats_.faultsInjected++;
            stats_.underShifts++;
            noteInjected();
            break;
        }
        return out;
    }

    /** One in-flight guard check; detection succeeds with coverage. */
    bool
    inFlightCheck()
    {
        noteGuardCheck();
        if (rng_.uniform() < cfg_.guardCoverage)
            return true;
        stats_.checksMissed++;
        return false;
    }

    /** One exact checkpoint check (port access / deposit / egress). */
    void noteCheckpointCheck() { noteGuardCheck(); }

    /** Record @p n compensating single-step shifts. */
    void
    noteCorrectionShifts(std::uint64_t n)
    {
        stats_.correctionShifts += n;
        if (scopeActive_)
            scope_.correctionShifts += n;
    }

    /** Record one realignment episode that restored alignment. */
    void
    noteCorrected()
    {
        if (scopeActive_) {
            scope_.faultsCorrected++;
            if (static_cast<int>(scope_.status) <
                static_cast<int>(FaultStatus::Corrected))
                scope_.status = FaultStatus::Corrected;
        }
    }

    /** Record a realignment episode that needed extra attempts. */
    void
    noteRetry()
    {
        stats_.realignRetries++;
        if (scopeActive_) {
            scope_.realignRetries++;
            if (static_cast<int>(scope_.status) <
                static_cast<int>(FaultStatus::Retried))
                scope_.status = FaultStatus::Retried;
        }
    }

    /** Record |error| beyond the guard's localization range. */
    void
    noteUncorrectable()
    {
        stats_.uncorrectable++;
        fail();
    }

    /** Record an exhausted realign-retry budget. */
    void
    noteBudgetExhausted()
    {
        stats_.budgetExhausted++;
        fail();
    }

    /** Record faulty travel pinned at the physical wire end. */
    void noteClamped() { stats_.clampedAtWireEnd++; }

    /**
     * Record an overtravel interlock: a fallible shift whose
     * *intended* target already lay outside the reserved region
     * (the caller's view of the train position had drifted under
     * injection). The drive interlock pins the train at the wire
     * end instead of aborting, and the episode escalates to Failed
     * — the data survived but its alignment contract is broken, so
     * the scoped VPC must be recovered, never trusted.
     */
    void
    noteOvertravel()
    {
        stats_.overtravelInterlocks++;
        fail();
    }

    /** Write/endurance fault hooks (deposit commits on save tracks).
     * @{ */

    /**
     * Sample one deposit commit on a track whose accumulated wear
     * (before this pulse) is @p wear.
     * @return true when nucleation succeeded; false when the
     * deposit-commit checkpoint sensed a failed nucleation.
     */
    bool
    sampleDeposit(std::uint64_t wear)
    {
        stats_.depositPulses++;
        if (scopeActive_)
            scope_.depositPulses++;
        if (rng_.uniform() >=
            writeModel_.depositFailureProbability(wear))
            return true;
        stats_.writeFaultsInjected++;
        if (scopeActive_)
            scope_.writeFaultsInjected++;
        return false;
    }

    /** Record one re-driven deposit pulse of a retry episode. */
    void
    noteRedeposit()
    {
        stats_.redeposits++;
        if (scopeActive_)
            scope_.redeposits++;
    }

    /**
     * Record a re-deposit episode that finally committed:
     * escalates to Corrected (one retry) or Retried (several).
     */
    void
    noteWriteCorrected(bool retried)
    {
        if (!scopeActive_)
            return;
        scope_.faultsCorrected++;
        const FaultStatus at_least = retried ? FaultStatus::Retried
                                             : FaultStatus::Corrected;
        if (static_cast<int>(scope_.status) <
            static_cast<int>(at_least))
            scope_.status = at_least;
    }

    /**
     * Record a re-deposit episode that ran out of budget. Does not
     * escalate to Failed by itself — the mat may still retire the
     * track onto a spare and commit there.
     */
    void noteRedepositExhausted() { stats_.redepositExhausted++; }

    /**
     * Record one worn track retired onto a spare (@p copy_bytes
     * migrated by the controller). The remap machinery is a heavy
     * recovery action, so the VPC escalates to at least Retried.
     */
    void
    noteRemap(std::uint64_t copy_bytes)
    {
        stats_.trackRemaps++;
        stats_.remapCopyBytes += copy_bytes;
        if (scopeActive_) {
            scope_.trackRemaps++;
            if (static_cast<int>(scope_.status) <
                static_cast<int>(FaultStatus::Retried))
                scope_.status = FaultStatus::Retried;
        }
    }

    /** Record a deposit lost for good (no spare left / spare episode
     * also exhausted): the domain keeps stale data, VPC Failed. */
    void
    noteWriteFailed()
    {
        stats_.writeFailures++;
        fail();
    }
    /** @} */

    /** Attribution scope: stats between begin/end belong to one VPC.
     * @{ */
    void
    beginVpc()
    {
        SPIM_ASSERT(!scopeActive_, "nested fault-attribution scope");
        scope_ = VpcFaultInfo{};
        scopeActive_ = true;
    }

    VpcFaultInfo
    endVpc()
    {
        SPIM_ASSERT(scopeActive_, "endVpc without beginVpc");
        scopeActive_ = false;
        return scope_;
    }

    bool scopeActive() const { return scopeActive_; }
    const VpcFaultInfo &currentInfo() const { return scope_; }
    /** @} */

  private:
    void
    noteInjected()
    {
        if (scopeActive_)
            scope_.faultsInjected++;
    }

    void
    noteGuardCheck()
    {
        stats_.guardChecks++;
        if (scopeActive_)
            scope_.guardChecks++;
    }

    void
    fail()
    {
        if (scopeActive_)
            scope_.status = FaultStatus::Failed;
    }

    FaultConfig cfg_;
    ShiftFaultModel model_;
    WriteFaultModel writeModel_;
    Rng rng_;
    FaultStats stats_;
    VpcFaultInfo scope_;
    bool scopeActive_ = false;
};

/**
 * One budget-bounded realignment episode on an abstract misalignment
 * of @p error positions: one fallible compensating single-step shift
 * per position, retried up to the injector's budget. Escalates
 * through the injector (uncorrectable / budget exhausted → the
 * active VPC scope turns Failed) and returns the residual error
 * (0 on success). Components whose misalignment is plain state (the
 * bus flits) use this directly; the Nanowire path mirrors it with
 * real tryShift calls (Mat::alignFallible).
 */
inline int
realignEpisode(FaultInjector &faults, int error)
{
    if (error == 0)
        return 0;
    const unsigned budget = faults.config().realignRetryBudget;
    unsigned attempts = 0;
    while (error != 0) {
        const unsigned mag = unsigned(error < 0 ? -error : error);
        if (mag > faults.maxCorrectable()) {
            faults.noteUncorrectable();
            return error;
        }
        if (attempts >= budget) {
            faults.noteBudgetExhausted();
            return error;
        }
        if (attempts > 0)
            faults.noteRetry();
        attempts++;
        for (unsigned k = 0; k < mag && error != 0; ++k) {
            const int dir = error > 0 ? -1 : 1;
            faults.noteCorrectionShifts(1);
            switch (faults.samplePulse(1)) {
              case ShiftOutcome::Exact:
                error += dir;
                break;
              case ShiftOutcome::OverShift:
                error += 2 * dir; // overshot past the target
                break;
              case ShiftOutcome::UnderShift:
                break; // the train did not move
            }
        }
    }
    faults.noteCorrected();
    return 0;
}

} // namespace streampim

#endif // STREAMPIM_RM_FAULT_INJECTOR_HH_
