#include "baselines/stream_pim_platform.hh"

#include "workloads/dnn.hh"

namespace streampim
{

StreamPimPlatform::StreamPimPlatform(SystemConfig config)
    : cfg_(config), planner_(cfg_), executor_(cfg_)
{
}

std::string
StreamPimPlatform::name() const
{
    return cfg_.busType == BusType::RmBus ? "StPIM" : "StPIM-e";
}

PlatformResult
StreamPimPlatform::run(const TaskGraph &graph)
{
    VpcSchedule schedule = planner_.plan(graph);
    lastReport_ = executor_.run(schedule);

    const std::uint64_t nl = nonlinearElements(graph);
    const double host_s = double(nl) * hostNsPerNonlinearElement *
                          1e-9;
    const double host_j = double(nl) * hostPjPerNonlinearElement *
                          1e-12;

    PlatformResult r;
    r.seconds = lastReport_.seconds() + host_s;
    r.joules = lastReport_.joules() + host_j;

    const auto &bd = lastReport_.breakdown;
    r.timeBreakdown["read"] = ticksToSeconds(bd.readTicks);
    r.timeBreakdown["write"] = ticksToSeconds(bd.writeTicks);
    r.timeBreakdown["shift"] = ticksToSeconds(bd.shiftTicks);
    r.timeBreakdown["process"] = ticksToSeconds(bd.processTicks);
    r.timeBreakdown["excl_transfer"] =
        ticksToSeconds(bd.exclusiveTransfer);
    r.timeBreakdown["excl_process"] =
        ticksToSeconds(bd.exclusiveProcess);
    r.timeBreakdown["overlapped"] = ticksToSeconds(bd.overlapped);
    r.timeBreakdown["idle"] = ticksToSeconds(bd.idle);
    r.timeBreakdown["host"] = host_s;

    const auto &e = lastReport_.energy;
    for (unsigned i = 0;
         i < static_cast<unsigned>(EnergyOp::NumOps); ++i) {
        auto op = static_cast<EnergyOp>(i);
        if (e.energyPj(op) > 0)
            r.energyBreakdown[energyOpName(op)] =
                e.energyPj(op) * 1e-12;
    }
    r.energyBreakdown["host"] = host_j;
    return r;
}

} // namespace streampim
