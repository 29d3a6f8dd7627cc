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
    Tick migrationTicks = 0; //!< health-policy operand migrations
    Tick recoveryTicks = 0;  //!< recovery-ladder snapshot/rollback

    // Coverage view of the makespan (Fig. 19): wall-clock intervals
    // covered exclusively by data transfer, exclusively by
    // processing, by both (overlapped), or by neither (idle).
    Tick exclusiveTransfer = 0;
    Tick exclusiveProcess = 0;
    Tick overlapped = 0;
    Tick idle = 0;
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
};

/** Replays schedules; one instance per experiment run. */
class Executor
{
  public:
    explicit Executor(const SystemConfig &config);

    /** Execute the schedule and return the timing/energy report. */
    ExecutionReport run(const VpcSchedule &schedule);

  private:
    /** Handle one TRAN batch; returns completion tick. */
    Tick runTransfer(const VpcBatch &batch, Tick ready);

    /** Handle one compute (MUL/SMUL/ADD) batch. */
    Tick runCompute(const VpcBatch &batch, Tick ready);

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
     * Expected re-deposit overhead of committing @p deposit_bytes at
     * the destination (closed form at the wear-independent floor, so
     * the timed path stays deterministic): records Redeposit energy
     * and returns the extra write time. Zero when write faults are
     * off.
     */
    Tick redepositTicks(std::uint64_t deposit_bytes);

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
    std::vector<Tick> done_;
    TimeBreakdown breakdown_;
    /** Fig. 19 coverage of transfer and process spans per subarray. */
    CoverageUnion coverage_;
};

} // namespace streampim

#endif // STREAMPIM_CORE_EXECUTOR_HH_
