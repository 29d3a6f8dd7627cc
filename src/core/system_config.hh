/**
 * @file
 * Top-level configuration of a StreamPIM system instance.
 */

#ifndef STREAMPIM_CORE_SYSTEM_CONFIG_HH_
#define STREAMPIM_CORE_SYSTEM_CONFIG_HH_

#include "common/types.hh"
#include "rm/params.hh"

namespace streampim
{

/** In-subarray interconnect flavor (StPIM vs StPIM-e, Sec. V-A). */
enum class BusType
{
    RmBus,       //!< segmented domain-wall nanowire bus (StreamPIM)
    Electrical,  //!< conventional electrical bus (StPIM-e ablation)
};

/** Scheduling/placement optimization level (Sec. IV-C, Fig. 22). */
enum class OptLevel
{
    Base,       //!< sequential placement, single-subarray execution
    Distribute, //!< rows spread across subarrays, naive issue order
    Unblock,    //!< + disjoint operand/result sets, interleaved issue
};

constexpr const char *
optLevelName(OptLevel level)
{
    switch (level) {
      case OptLevel::Base: return "base";
      case OptLevel::Distribute: return "distribute";
      case OptLevel::Unblock: return "unblock";
    }
    return "?";
}

/** Everything needed to instantiate a StreamPIM device + runtime. */
struct SystemConfig
{
    RmParams rm;

    BusType busType = BusType::RmBus;
    OptLevel optLevel = OptLevel::Unblock;

    /** Bank-internal bus bandwidth for inter-subarray copies. */
    static constexpr unsigned kBankBusBytesPerCycle = 32;

    /** Shared inter-bank bus bandwidth. */
    static constexpr unsigned kDeviceBusBytesPerCycle = 64;

    /** Staging subarrays in the memory banks used as vector homes
     * under unblock (the disjoint result/operand set). */
    static constexpr unsigned kStagingSubarrays = 64;

    /** Host link: ticks to deliver one VPC to the device queue. The
     * asynchronous send-response protocol (Sec. IV-B) lets many VPCs
     * be in flight; this is the per-command serialization cost. */
    Tick vpcIssueTicks = nsToTicks(2.0);

    /** Slicing threshold (Sec. IV-C): a VPC whose vector exceeds
     * this is split across subarrays and recombined with adds. */
    std::uint64_t maxVpcElements = 1u << 20;

    /**
     * Whether bank controllers issue commands strictly in order with
     * head-of-line blocking. The unblock optimization's reordering
     * and disjoint placement make issue effectively per-subarray, so
     * head-of-line blocking disappears at that level.
     */
    bool
    headOfLineBlocking() const
    {
        return optLevel != OptLevel::Unblock;
    }

    /** Bytes read/written by one mat row operation (512 tracks / 8
     * bits): bulk RW moves whole rows through the access ports. */
    unsigned
    rowBytes() const
    {
        return rm.saveTracksPerMat / 8;
    }

    void
    validate() const
    {
        rm.validate();
    }

    /** The paper's default configuration (Table III). */
    static SystemConfig
    paperDefault()
    {
        SystemConfig cfg;
        return cfg;
    }
};

} // namespace streampim

#endif // STREAMPIM_CORE_SYSTEM_CONFIG_HH_
