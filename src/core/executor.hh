/**
 * @file
 * Timed execution of a VPC schedule on the StreamPIM device.
 *
 * The executor replays a VpcSchedule against the device's resource
 * model:
 *
 *  - Each subarray is an exclusive resource: read/write operations
 *    and shift-based work (bus transfer + computation) are mutually
 *    exclusive within a subarray (Sec. IV-C), and a subarray has a
 *    single RM processor.
 *  - Each bank controller issues commands in program order with
 *    head-of-line blocking: a command that cannot start (its target
 *    subarray is busy with conflicting work) stalls every later
 *    command of that bank. This is the mechanism the unblock
 *    optimization defuses by reordering commands and separating
 *    operand/result subarray sets.
 *  - Inter-subarray transfers use the bank-internal bus; inter-bank
 *    transfers use the shared device bus.
 *  - The host link delivers VPCs at a fixed per-command cost; the
 *    asynchronous send-response protocol allows unlimited commands
 *    in flight.
 *
 * Timing within a batch comes from the closed-form models
 * (ProcessorTiming, RmBusTiming, ElectricalBusTiming), which are
 * validated against the bit-accurate component models in the
 * integration tests.
 */

#ifndef STREAMPIM_CORE_EXECUTOR_HH_
#define STREAMPIM_CORE_EXECUTOR_HH_

#include <cstdint>
#include <vector>

#include "bus/electrical_bus.hh"
#include "bus/rm_bus.hh"
#include "common/types.hh"
#include "core/system_config.hh"
#include "processor/timing.hh"
#include "rm/endurance.hh"
#include "rm/energy.hh"
#include "runtime/schedule.hh"
#include "sim/clocked.hh"
#include "sim/coverage.hh"
#include "sim/resource.hh"

namespace streampim
{

/** Time-span category sums and coverage-based breakdown. */
struct TimeBreakdown
{
    // Raw per-category busy sums (may exceed makespan: parallel HW).
    Tick readTicks = 0;
    Tick writeTicks = 0;
    Tick shiftTicks = 0;   //!< in-subarray RM-bus/mat streaming
    Tick processTicks = 0; //!< RM processor pipelines
    Tick recoveryTicks = 0; //!< recovery-ladder snapshot/rollback

    // Coverage view of the makespan (Fig. 19): wall-clock intervals
    // covered exclusively by data transfer, exclusively by
    // processing, by both (overlapped), or by neither (idle).
    Tick exclusiveTransfer = 0;
    Tick exclusiveProcess = 0;
    Tick overlapped = 0;
    Tick idle = 0;

    bool operator==(const TimeBreakdown &) const = default;
};

/** Result of executing one schedule. */
struct ExecutionReport
{
    Tick makespan = 0;
    EnergyMeter energy;
    TimeBreakdown breakdown;
    std::uint64_t pimVpcs = 0;
    std::uint64_t moveVpcs = 0;
    std::uint64_t batches = 0;

    // Resource utilization (busy ticks), for bottleneck analysis.
    Tick maxSubarrayBusy = 0;
    Tick maxBankBusBusy = 0;
    Tick deviceBusBusy = 0;
    Tick hostLinkBusy = 0;

    double seconds() const { return ticksToSeconds(makespan); }
    double joules() const { return energy.totalPj() * 1e-12; }

    bool operator==(const ExecutionReport &) const = default;
};

/** Replays schedules; one instance per experiment run. */
class Executor
{
  public:
    explicit Executor(const SystemConfig &config);

    /** Execute the schedule and return the timing/energy report. */
    ExecutionReport run(const VpcSchedule &schedule);

  private:
    /**
     * What one logical batch costs, a function of its shape alone
     * (kind, vpcCount, vectorLen, recovery): the durations,
     * breakdown shares and energy counts the per-batch path would
     * otherwise recompute with several integer divisions.
     * A run's batches share one shape, so run() checks the shape
     * once per run and computes the cost only when it changes.
     * Energy is still recorded per logical batch, in order
     * (DESIGN §13).
     */
    struct BatchCost
    {
        std::uint64_t rows = 0; //!< TRAN row operations per end
        Tick readTime = 0;      //!< TRAN source reads
        Tick writeTime = 0;     //!< TRAN writes / compute write share
        Tick bankBusTime = 0;   //!< TRAN hop on a bank-internal bus
        Tick deviceBusTime = 0; //!< TRAN hop on the device bus
        std::uint64_t redeposits = 0; //!< expected re-driven deposits
        Tick processTime = 0;   //!< compute pipeline
        Tick fillTime = 0;      //!< RM-bus first-wave fill
        Tick tailTime = 0;      //!< serialized tail after processing
        Tick shiftTime = 0;     //!< RM-bus streaming share of the grant
        std::uint64_t busPulses = 0;   //!< RM-bus segment pulses
        std::uint64_t matPulses = 0;   //!< in-mat streaming row pulses
        std::uint64_t guardSenses = 0; //!< shift-fault guard senses
        std::uint64_t corrections = 0; //!< compensating shifts
    };

    BatchCost transferCost(const VpcBatch &batch) const;
    BatchCost computeCost(const VpcBatch &batch) const;

    /** Handle one TRAN batch; returns completion tick. */
    Tick runTransfer(const VpcBatch &batch, const BatchCost &cost,
                     Tick ready);

    /** Handle one compute (MUL/SMUL/ADD) batch. */
    Tick runCompute(const VpcBatch &batch, const BatchCost &cost,
                    Tick ready);

    /** Per-batch pipeline cycles for a compute batch. */
    Cycle computeCycles(const VpcBatch &batch) const;

    /** Result payload written back per VPC, in elements. */
    std::uint64_t resultElementsPerVpc(const VpcBatch &batch) const;

    unsigned bankOf(std::uint32_t subarray) const;

    SystemConfig cfg_;
    ClockDomain clock_;
    ProcessorTiming procTiming_;
    RmBusTiming busTiming_;
    ElectricalBusTiming eBusTiming_;
    WriteFaultModel writeModel_;

    /**
     * Expected re-driven deposit pulses of committing
     * @p deposit_bytes at the destination (closed form at the
     * wear-independent floor, so the timed path stays
     * deterministic); each costs one write quantum. Zero when write
     * faults are off.
     */
    std::uint64_t expectedRedeposits(std::uint64_t deposit_bytes) const;

    // Mutable per-run state.
    EnergyMeter meter_;
    RmEnergyModel energy_;
    std::vector<TickResource> subarrays_;
    std::vector<Tick> bankIssueFree_;
    /**
     * Buses are duplex: the forward channel carries operand
     * distribution (into the PIM banks) and the return channel
     * carries results toward the staging/memory banks. Separate
     * channels keep late-ready result transfers from head-blocking
     * early-ready operand transfers.
     */
    std::vector<TickResource> bankBusFwd_;
    std::vector<TickResource> bankBusRet_;
    TickResource deviceBusFwd_;
    TickResource deviceBusRet_;
    TickResource hostLink_;
    /**
     * Completion ticks of the most recent logical batches, a ring
     * indexed by `i & (size - 1)`. run() sizes it to the smallest
     * power of two above the schedule's longest dependency distance
     * (VpcSchedule::maxDepDistance), so a dependency always reads a
     * slot no later batch has overwritten; barriers use the running
     * maximum instead. Its size is O(window), not O(batches).
     */
    std::vector<Tick> done_;
    TimeBreakdown breakdown_;
    /** Fig. 19 coverage of transfer and process spans per subarray. */
    CoverageUnion coverage_;
};

} // namespace streampim

#endif // STREAMPIM_CORE_EXECUTOR_HH_
