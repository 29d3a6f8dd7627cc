/**
 * @file
 * Functional subarray: mats + RM bus + RM processor executing the
 * Fig. 13 PIM data flow on real data.
 *
 * This is the bit-level end of the two-level fidelity scheme: a
 * (small-geometry) subarray whose VPC execution actually moves
 * bytes from save tracks through transfer tracks onto the
 * segmented bus, into the domain-wall processor, and back — with
 * every shift/fan-out/gate accounted. Integration tests run VPCs
 * here and check both the numerical results (against host
 * arithmetic) and the cycle counts (against the closed-form
 * ProcessorTiming / RmBusTiming models used by the fast executor).
 */

#ifndef STREAMPIM_MEM_SUBARRAY_HH_
#define STREAMPIM_MEM_SUBARRAY_HH_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "bus/rm_bus.hh"
#include "common/arena.hh"
#include "mem/mat.hh"
#include "processor/rm_processor.hh"
#include "rm/energy.hh"
#include "rm/fault_injector.hh"
#include "rm/params.hh"
#include "vpc/vpc.hh"

namespace streampim
{

/** Wear/endurance summary aggregated over one subarray's mats. */
struct SubarrayWear
{
    std::uint64_t deposits = 0;     //!< nucleations across all mats
    std::uint64_t maxTrackWear = 0; //!< worst live save track
    std::uint64_t remaps = 0;       //!< tracks retired onto spares
    unsigned sparesUsed = 0;
    unsigned sparesTotal = 0;
    /**
     * Mats whose spare pool is fully consumed. Spares are per-mat,
     * so one exhausted mat means the next worn-out track there has
     * no remapping headroom and fails for good, even while sibling
     * mats still hold spares — this is the signal the health policy
     * quarantines on, not the aggregate pool.
     */
    unsigned exhaustedMats = 0;

    void
    merge(const MatWear &m)
    {
        deposits += m.deposits;
        maxTrackWear = std::max(maxTrackWear, m.maxTrackWear);
        remaps += m.remaps;
        sparesUsed += m.sparesUsed;
        sparesTotal += m.sparesTotal;
        if (m.sparesTotal > 0 && m.sparesUsed >= m.sparesTotal)
            exhaustedMats++;
    }
};

/**
 * The health order of subarray @p id with wear @p w: smaller keys
 * are healthier. Exhausted mats weigh first (no remapping headroom
 * left), then spares used, worst live track and total deposits;
 * the id makes the order total, so every scan that picks the
 * healthiest (or blames the worst) subarray is deterministic.
 */
inline std::tuple<unsigned, unsigned, std::uint64_t, std::uint64_t,
                  std::uint32_t>
healthKey(const SubarrayWear &w, std::uint32_t id)
{
    return {w.exhaustedMats, w.sparesUsed, w.maxTrackWear, w.deposits,
            id};
}

/** Result of one functionally executed VPC. */
struct SubarrayVpcResult
{
    std::vector<std::uint32_t> values;
    Cycle busCycles = 0;     //!< functional bus cycles consumed
    Cycle pipelineCycles = 0; //!< processor pipeline cycles (model)
    bool overflow = false;
    /** Fault-recovery outcome (Clean when no injector attached). */
    VpcFaultInfo fault;
};

/** One PIM-capable subarray with functional storage + compute. */
class FunctionalSubarray
{
  public:
    /**
     * @param params device parameters (bus geometry, energies)
     * @param mats number of mats
     * @param tracks_per_mat save tracks per mat (multiple of 8)
     * @param domains_per_track domains per save track
     */
    FunctionalSubarray(const RmParams &params, unsigned mats,
                       unsigned tracks_per_mat,
                       unsigned domains_per_track);

    /** Capacity in bytes across all mats. */
    std::uint64_t capacityBytes() const;

    /** Regular (host) write through access ports. */
    void hostWrite(std::uint64_t offset,
                   std::span<const std::uint8_t> data);

    /**
     * Regular (host) read through access ports, appending @p count
     * bytes to @p out (allocation-free when @p out has capacity —
     * the engine's per-worker scratch buffers).
     */
    void hostReadInto(std::uint64_t offset, std::uint64_t count,
                      std::vector<std::uint8_t> &out);

    /**
     * Execute a compute VPC over operand vectors stored at byte
     * offsets @p src1 and @p src2, writing results at @p dst.
     * Follows Fig. 13: non-destructive copy to transfer tracks,
     * shift onto the RM bus, pipeline compute, stream back.
     *
     * Writes into @p res, reusing its values storage. All staging
     * buffers come from the subarray's bump arena and
     * reused member vectors, so a warm subarray executes a VPC with
     * zero heap allocations in the packed functional mode (the
     * strict gate-netlist mode allocates BitVec scratch freely).
     */
    void executeVpcInto(VpcKind kind, std::uint64_t src1,
                        std::uint64_t src2, std::uint64_t dst,
                        std::uint32_t size, SubarrayVpcResult &res);

    const EnergyMeter &energy() const { return meter_; }
    const RmProcessor &processor() const { return *processor_; }
    Mat &mat(unsigned i);
    unsigned mats() const { return unsigned(mats_.size()); }

    /** Aggregate wear/endurance state across all mats. */
    SubarrayWear wearSummary() const;

    /**
     * Attach a shift-fault injector to the whole datapath: every
     * mat, the segmented bus, and the processor's operand ingest
     * draw sampled pulse outcomes from it, and executeVpcInto charges
     * the recovery overhead (correction-shift energy + guard-sense
     * energy + extra bus cycles) and reports the per-VPC
     * FaultStatus in SubarrayVpcResult::fault. Pass nullptr to
     * detach (e.g. for fault-free verification readout).
     */
    void setFaultInjector(FaultInjector *faults);

    const FaultInjector *faultInjector() const { return faults_; }

  private:
    struct Location
    {
        unsigned mat;
        std::uint64_t offset;
    };

    Location locate(std::uint64_t offset) const;

    /**
     * Fetch a vector non-destructively onto the bus (steps 1-2).
     * The returned span lives in arena_ and is valid until the next
     * executeVpcInto (which resets the arena).
     */
    std::span<std::uint8_t> streamOut(std::uint64_t offset,
                                      std::uint32_t size,
                                      Cycle &bus_cycles);

    /** Deposit a result vector into mats via shifts (steps 4-5). */
    void streamIn(std::uint64_t offset,
                  std::span<const std::uint8_t> data,
                  Cycle &bus_cycles);

    const RmParams &params_;
    std::uint64_t matBytes_;
    std::vector<std::unique_ptr<Mat>> mats_;
    EnergyMeter meter_;
    RmEnergyModel energy_;
    std::unique_ptr<RmProcessor> processor_;
    RmBus bus_;
    RmBusTiming busTiming_;
    FaultInjector *faults_ = nullptr;

    /** Per-VPC staging buffers (reset/reused each executeVpcInto —
     * the conflict-graph engine guarantees exclusive access). @{ */
    BumpArena arena_;
    std::vector<std::uint64_t> busWords_;
    std::vector<std::uint64_t> busArrived_;
    ProcessorResult procScratch_;
    /** @} */
};

} // namespace streampim

#endif // STREAMPIM_MEM_SUBARRAY_HH_
