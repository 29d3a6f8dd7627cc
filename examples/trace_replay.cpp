/**
 * @file
 * Trace replay: the paper's trace-driven methodology end to end.
 *
 * Plans a polybench kernel into a VPC schedule, saves it as a
 * STPIMTRACE file (the analogue of the paper's instrumented
 * polybench traces), reloads it, and replays it on two device
 * configurations — demonstrating how one trace explores different
 * hardware points, exactly how the paper's sensitivity studies run.
 *
 * Usage: ./build/examples/example_trace_replay [kernel] [dim]
 */

#include <cstdio>
#include <cstring>
#include <cstdlib>

#include "core/executor.hh"
#include "core/report.hh"
#include "runtime/planner.hh"
#include "runtime/trace.hh"
#include "workloads/polybench.hh"

using namespace streampim;

int
main(int argc, char **argv)
{
    const char *kernel_name = argc > 1 ? argv[1] : "atax";
    const unsigned dim = argc > 2 ? unsigned(std::atoi(argv[2]))
                                  : 256;

    PolybenchKernel kernel = PolybenchKernel::Atax;
    for (PolybenchKernel k : allPolybenchKernels())
        if (std::strcmp(polybenchName(k), kernel_name) == 0)
            kernel = k;

    // 1. Generate the trace from the instrumented workload.
    SystemConfig cfg = SystemConfig::paperDefault();
    Planner planner(cfg);
    VpcTrace trace;
    trace.workload = polybenchName(kernel);
    trace.schedule = planner.plan(makePolybench(kernel, dim));
    const std::string path = std::string("/tmp/") + trace.workload +
                             ".stpim";
    saveTraceFile(trace, path);
    std::printf("trace: %s (%llu PIM VPCs, %llu move VPCs, %llu "
                "batches) -> %s\n",
                trace.workload.c_str(),
                (unsigned long long)trace.schedule.pimVpcs(),
                (unsigned long long)trace.schedule.moveVpcs(),
                (unsigned long long)trace.schedule.batchCount(),
                path.c_str());

    // 2. Reload and replay on two hardware configurations.
    VpcTrace loaded = loadTraceFile(path);

    Executor rm_exec(cfg);
    ExecutionReport rm_rep = rm_exec.run(loaded.schedule);
    std::printf("\nStPIM   : %s\n",
                summarizeReport(rm_rep).c_str());

    SystemConfig e_cfg = cfg;
    e_cfg.busType = BusType::Electrical;
    Executor e_exec(e_cfg);
    ExecutionReport e_rep = e_exec.run(loaded.schedule);
    std::printf("StPIM-e : %s\n", summarizeReport(e_rep).c_str());

    std::printf("\nelectrical-bus slowdown on this trace: %.2fx\n",
                double(e_rep.makespan) / double(rm_rep.makespan));
    return 0;
}
