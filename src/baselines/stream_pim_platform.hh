/**
 * @file
 * The StreamPIM device as a Platform (StPIM, and StPIM-e with the
 * electrical-bus config), wrapping Planner + Executor and adding the
 * host-side cost of nonlinear ops for the DNN workloads.
 */

#ifndef STREAMPIM_BASELINES_STREAM_PIM_PLATFORM_HH_
#define STREAMPIM_BASELINES_STREAM_PIM_PLATFORM_HH_

#include <string>

#include "baselines/platform.hh"
#include "core/executor.hh"
#include "core/system_config.hh"
#include "runtime/planner.hh"

namespace streampim
{

/** StreamPIM (or StPIM-e) as an evaluation platform. */
class StreamPimPlatform : public Platform
{
  public:
    explicit StreamPimPlatform(SystemConfig config =
                                   SystemConfig::paperDefault());

    std::string name() const override;
    PlatformResult run(const TaskGraph &graph) override;

    /** The raw execution report of the last run (Fig. 19/20). */
    const ExecutionReport &lastReport() const { return lastReport_; }

    const SystemConfig &config() const { return cfg_; }

    /** Host-side nonlinear op costs (same host as CPU-RM). @{ */
    double hostNsPerNonlinearElement = 8.0;
    double hostPjPerNonlinearElement = 80.0;
    /** @} */

  private:
    SystemConfig cfg_;
    Planner planner_;
    Executor executor_;
    ExecutionReport lastReport_;
};

} // namespace streampim

#endif // STREAMPIM_BASELINES_STREAM_PIM_PLATFORM_HH_
