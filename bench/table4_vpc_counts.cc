/**
 * @file
 * Table IV — VPC trace characteristics of the nine workloads:
 * #PIM-VPC (MUL/SMUL/ADD) and #move-VPC (TRAN) per kernel.
 *
 * Counts are always generated at the paper's dim=2000 configuration
 * (trace generation is cheap). Our lowering conventions differ in
 * detail from the authors' trace generator (documented in
 * EXPERIMENTS.md), so counts match in magnitude, not exactly.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/system_config.hh"
#include "parallel/sweep.hh"
#include "runtime/planner.hh"
#include "workloads/polybench.hh"

using namespace streampim;
using namespace streampim::bench;

int
main(int argc, char **argv)
{
    std::printf("Table IV: workload characteristics (dim=2000)\n\n");

    struct PaperCounts
    {
        double pim;
        double move;
    };
    const std::vector<PaperCounts> paper = {
        {7.37e6, 7.36e6}, {1.19e7, 1.18e7}, {4.61e6, 4.60e6},
        {6.77e6, 6.76e6}, {1.36e7, 1.35e7}, {4.00e3, 8.40e3},
        {3.60e3, 8.00e3}, {5.60e3, 8.40e3}, {8.00e3, 1.60e4},
    };

    SweepRunner sweep("table4_vpc_counts", argc, argv);
    for (PolybenchKernel k : allPolybenchKernels())
        sweep.add(polybenchName(k), "counts", [k] {
            SystemConfig cfg = SystemConfig::paperDefault();
            Planner planner(cfg);
            VpcSchedule sched = planner.plan(makePolybench(k, 2000));
            SweepCellResult res;
            res.value = double(sched.pimVpcs());
            res.metrics["pim_vpcs"] = double(sched.pimVpcs());
            res.metrics["move_vpcs"] = double(sched.moveVpcs());
            res.metrics["batches"] = double(sched.batchCount());
            // Reserved perf metric: VPCs planned is the functional
            // unit of work this trace-generation bench performs.
            res.metrics["functional_ops"] =
                double(sched.pimVpcs() + sched.moveVpcs());
            return res;
        });
    sweep.run();

    Table t({"benchmark", "#PIM-VPC", "paper", "#move-VPC",
             "paper"});
    std::size_t i = 0;
    for (PolybenchKernel k : allPolybenchKernels()) {
        const auto &m = sweep.cell(polybenchName(k), "counts")
                            .metrics;
        t.addRow({polybenchName(k), fmtSci(m.at("pim_vpcs")),
                  fmtSci(paper[i].pim), fmtSci(m.at("move_vpcs")),
                  fmtSci(paper[i].move)});
        i++;
    }
    t.print();

    Json paper_counts = Json::object();
    i = 0;
    for (PolybenchKernel k : allPolybenchKernels()) {
        Json p = Json::object();
        p["pim_vpcs"] = paper[i].pim;
        p["move_vpcs"] = paper[i].move;
        paper_counts[polybenchName(k)] = std::move(p);
        i++;
    }
    printPerf("VPCs planned", sweep.functionalOps(),
              sweep.wallSeconds());
    sweep.note("paper_counts", std::move(paper_counts));
    sweep.note("dim", 2000);
    sweep.writeReport();
    return 0;
}
