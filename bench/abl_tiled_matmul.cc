/**
 * @file
 * Ablation — streaming tiled matmul: tile size x double buffering.
 *
 * Out-of-core matmuls stream through the tiling layer
 * (runtime/tiler.hh): mat-sized tile tasks, output-stationary
 * accumulation over k-tiles, and (optionally) double-buffered
 * operand staging so the transfers of tile t+1 hide under the
 * compute of tile t. This ablation plans and executes out-of-core
 * products on the timed model across tile sizes with double
 * buffering on and off, reporting simulated makespan and the
 * bus-overlap ratio — the fraction of transfer time hidden under
 * compute. A functional row verifies the same dataflow bit-exactly
 * against the host mod-256 reference on the small geometry.
 *
 * The bench fails (nonzero exit) if, on any timed case, double
 * buffering does not beat single buffering on simulated cycles, or
 * does not raise the overlap ratio by at least kMinOverlapGain — the
 * property the tiling layer exists to deliver.
 */

#include <cstdio>
#include <stdexcept>
#include <vector>

#include "bench_util.hh"
#include "core/executor.hh"
#include "core/tiled_matmul.hh"
#include "parallel/sweep.hh"
#include "runtime/planner.hh"

using namespace streampim;
using namespace streampim::bench;

namespace
{

/** Least overlap-ratio gain double buffering must show per case. */
constexpr double kMinOverlapGain = 0.05;

struct TimedCase
{
    const char *label;
    std::uint32_t dim;  //!< cubic problem, dim^3
    std::uint32_t tile; //!< square tile edge
};

double
overlapRatio(const ExecutionReport &rep)
{
    const double overlapped = double(rep.breakdown.overlapped);
    const double exclusive =
        double(rep.breakdown.exclusiveTransfer);
    if (overlapped + exclusive == 0.0)
        return 0.0;
    return overlapped / (overlapped + exclusive);
}

SweepCellResult
timedCell(const TimedCase &tc, bool double_buffer)
{
    SystemConfig cfg;
    Planner planner(cfg);
    TilerConfig tiler;
    tiler.tileEdge = tc.tile;
    tiler.doubleBuffer = double_buffer;
    planner.setTilerConfig(tiler);

    VpcSchedule sched =
        planner.planTiledMatmul(tc.dim, tc.dim, tc.dim);
    Executor exec(cfg);
    ExecutionReport rep = exec.run(sched);

    SweepCellResult res;
    res.value = double(rep.makespan);
    res.metrics["makespan_ticks"] = double(rep.makespan);
    res.metrics["overlap_ratio"] = overlapRatio(rep);
    res.metrics["tile_tasks"] = double(planner.stats().tileTasks);
    res.metrics["batches"] = double(planner.stats().batches);
    res.metrics["pim_vpcs"] = double(planner.stats().pimVpcs);
    res.metrics["move_vpcs"] = double(planner.stats().moveVpcs);
    return res;
}

/** Functional verification on the small geometry (out-of-core for
 * it): bit-exact against the host mod-256 reference. */
SweepCellResult
functionalCell(bool double_buffer)
{
    const std::uint32_t n = 64, k = 48, m = 40;
    std::vector<std::uint8_t> a(std::uint64_t(n) * k);
    std::vector<std::uint8_t> b(std::uint64_t(k) * m);
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = std::uint8_t(i * 31 + 7);
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = std::uint8_t(i * 17 + 3);

    StreamPimSystem sys;
    TiledMatmulConfig cfg;
    cfg.doubleBuffer = double_buffer;
    TiledMatmulStats st;
    const auto c = runTiledMatmul(sys, a, b, n, k, m, cfg, &st);
    if (c != hostMatmulReference(a, b, n, k, m))
        throw std::runtime_error(
            "functional tiled matmul mismatch");

    SweepCellResult res;
    res.value = double(st.tileTasks);
    res.metrics["functional_ops"] = double(st.vpcs);
    res.metrics["tile_tasks"] = double(st.tileTasks);
    res.metrics["rounds"] = double(st.rounds);
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf(
        "Ablation: streaming tiled matmul (tile x buffering)\n\n");

    const std::vector<TimedCase> cases = {
        {"1024^3/t128", 1024, 128},
        {"1024^3/t256", 1024, 256},
        {"4096^3/t256", 4096, 256},
        {"4096^3/t512", 4096, 512},
    };
    const char *kDb = "double_buffer";
    const char *kSb = "single_buffer";

    SweepRunner sweep("abl_tiled_matmul", argc, argv);
    for (const TimedCase &tc : cases) {
        sweep.add(tc.label, kDb, [tc] { return timedCell(tc, true); });
        sweep.add(tc.label, kSb,
                  [tc] { return timedCell(tc, false); });
    }
    sweep.add("func/64x48x40", kDb, [] { return functionalCell(true); });
    sweep.add("func/64x48x40", kSb,
              [] { return functionalCell(false); });
    sweep.run();
    sweep.measureSerialReference();

    Table t({"case", "db makespan", "sb makespan", "speedup",
             "db overlap", "sb overlap", "tile tasks"});
    bool gate_ok = true;
    for (const TimedCase &tc : cases) {
        const auto &db = sweep.cell(tc.label, kDb);
        const auto &sb = sweep.cell(tc.label, kSb);
        const double speedup = sb.value / db.value;
        const double db_ov = db.metrics.at("overlap_ratio");
        const double sb_ov = sb.metrics.at("overlap_ratio");
        if (db.value >= sb.value || db_ov < sb_ov + kMinOverlapGain)
            gate_ok = false;
        t.addRow({tc.label, fmt(db.value, 0), fmt(sb.value, 0),
                  fmt(speedup, 3) + "x", fmt(db_ov, 4),
                  fmt(sb_ov, 4),
                  fmt(db.metrics.at("tile_tasks"), 0)});
    }
    t.print();

    const auto &fdb = sweep.cell("func/64x48x40", kDb);
    std::printf("\nfunctional check: %.0f tile tasks, %.0f VPCs, "
                "%.0f rounds — bit-exact vs host reference\n",
                fdb.metrics.at("tile_tasks"),
                fdb.metrics.at("functional_ops"),
                fdb.metrics.at("rounds"));

    std::printf("\nExpected: double buffering hides tile staging "
                "under compute — lower makespan and a higher "
                "bus-overlap ratio at every tile size.\n");

    sweep.note("cell_unit", "simulated_makespan_ticks");
    sweep.note("paper_ref",
               "StreamPIM Sec. IV-C (operand streaming); tiling "
               "layer beyond the paper");
    sweep.writeReport();

    if (!gate_ok) {
        std::fprintf(stderr,
                     "FAIL: double buffering did not beat single "
                     "buffering on makespan and raise the overlap "
                     "ratio by >= %.2f on every timed case\n",
                     kMinOverlapGain);
        return 1;
    }
    return 0;
}
