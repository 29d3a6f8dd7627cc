/**
 * @file
 * Ablation — pipelined vs non-pipelined RM bus transfer.
 *
 * Sec. III-D argues that transferring words one at a time over the
 * domain-wall bus would be throughput-limited by the slow domain
 * propagation; the segment design transfers data/empty couples from
 * different sources concurrently. This ablation compares the
 * functional bus model's cycle counts in both modes.
 */

#include <cstdio>
#include <stdexcept>

#include "bench_util.hh"
#include "bus/rm_bus.hh"
#include "parallel/sweep.hh"
#include "rm/params.hh"

using namespace streampim;
using namespace streampim::bench;

namespace
{

/** Cycles to push words one-at-a-time (wait for full traversal). */
Cycle
unpipelinedCycles(unsigned words, unsigned segments)
{
    // Each word must fully traverse the bus before the next is
    // injected.
    return Cycle(words) * segments;
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("Ablation: pipelined vs non-pipelined RM bus\n\n");

    const std::vector<unsigned> word_counts = {64, 256, 1024, 4096};
    const std::vector<unsigned> seg_counts = {4, 16, 64};

    SweepRunner sweep("abl_bus_pipeline", argc, argv);
    for (unsigned words : word_counts)
        for (unsigned seg_count : seg_counts)
            sweep.add(std::to_string(words),
                      std::to_string(seg_count),
                      [words, seg_count] {
                // One lane group; functional model with
                // `seg_count` segments per lane.
                RmBus bus(8, seg_count);
                std::vector<std::uint64_t> payload(words);
                for (unsigned i = 0; i < words; ++i)
                    payload[i] = i & 0xFF;
                Cycle piped = 0;
                std::vector<std::uint64_t> arrived;
                bus.transferAllInto(payload, arrived, piped);
                if (arrived.size() != payload.size())
                    throw std::runtime_error("bus lost data");
                Cycle serial = unpipelinedCycles(words, seg_count);
                SweepCellResult res;
                res.value = double(serial) / double(piped);
                res.metrics["pipelined_cycles"] = double(piped);
                res.metrics["serial_cycles"] = double(serial);
                return res;
            });
    sweep.run();

    Table t({"words", "segments", "pipelined (cycles)",
             "one-by-one (cycles)", "speedup"});
    for (unsigned words : word_counts)
        for (unsigned seg_count : seg_counts) {
            const auto &c = sweep.cell(std::to_string(words),
                                       std::to_string(seg_count));
            t.addRow({std::to_string(words),
                      std::to_string(seg_count),
                      fmt(c.metrics.at("pipelined_cycles"), 0),
                      fmt(c.metrics.at("serial_cycles"), 0),
                      fmt(c.value, 1) + "x"});
        }
    t.print();

    std::printf("\nExpected: pipelining approaches one wave per 2 "
                "cycles regardless of bus length.\n");

    sweep.note("cell_unit", "speedup_vs_serial");
    sweep.writeReport();
    return 0;
}
