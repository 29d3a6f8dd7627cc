#include "core/event_executor.hh"

#include <algorithm>

#include "common/log.hh"

namespace streampim
{

namespace
{

/**
 * The reference executor formulates the schedule as an explicit
 * max-plus dependency graph: every batch stage is a node whose
 * start is the max of its input times (dependencies, host link,
 * per-resource FIFO predecessor, head-of-line issue gate) plus its
 * duration. Nodes resolve through a Kahn-style worklist, and every
 * batch completion is scheduled on the EventQueue at its computed
 * time, so the makespan is read off the simulated clock. This is an
 * independent formulation of the semantics the fast Executor
 * realizes with a single busy-until sweep; the cross-validation
 * tests require tick-identical results from both.
 */
struct Node
{
    Tick duration = 0;
    std::vector<int> inputs;   //!< node ids whose END feeds start
    std::vector<int> startInputs; //!< node ids whose START feeds it
    Tick readyBase = 0;        //!< static input (host link time)
    // Resolved times.
    Tick start = 0;
    Tick end = 0;
    int pendingInputs = 0;
    std::vector<int> outputs;      //!< nodes waiting on our end
    std::vector<int> startOutputs; //!< nodes waiting on our start
};

class Graph
{
  public:
    int
    addNode(Tick duration, Tick ready_base = 0)
    {
        Node n;
        n.duration = duration;
        n.readyBase = ready_base;
        nodes_.push_back(std::move(n));
        return int(nodes_.size()) - 1;
    }

    void
    addEndEdge(int from, int to)
    {
        if (from < 0)
            return;
        nodes_[to].inputs.push_back(from);
    }

    void
    addStartEdge(int from, int to)
    {
        if (from < 0)
            return;
        nodes_[to].startInputs.push_back(from);
    }

    /** Resolve every node; returns per-node end times. */
    void
    resolve()
    {
        std::vector<int> worklist;
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            Node &n = nodes_[i];
            n.pendingInputs =
                int(n.inputs.size() + n.startInputs.size());
            for (int in : n.inputs)
                nodes_[in].outputs.push_back(int(i));
            for (int in : n.startInputs)
                nodes_[in].startOutputs.push_back(int(i));
            if (n.pendingInputs == 0)
                worklist.push_back(int(i));
        }
        std::size_t resolved = 0;
        while (!worklist.empty()) {
            int id = worklist.back();
            worklist.pop_back();
            Node &n = nodes_[id];
            Tick start = n.readyBase;
            for (int in : n.inputs)
                start = std::max(start, nodes_[in].end);
            for (int in : n.startInputs)
                start = std::max(start, nodes_[in].start);
            n.start = start;
            n.end = start + n.duration;
            resolved++;
            for (int out : n.outputs)
                if (--nodes_[out].pendingInputs == 0)
                    worklist.push_back(out);
            for (int out : n.startOutputs)
                if (--nodes_[out].pendingInputs == 0)
                    worklist.push_back(out);
        }
        SPIM_ASSERT(resolved == nodes_.size(),
                    "cycle in the schedule graph: resolved ",
                    resolved, " of ", nodes_.size());
    }

    const Node &node(int id) const { return nodes_[id]; }

  private:
    std::vector<Node> nodes_;
};

} // namespace

EventExecutor::EventExecutor(const SystemConfig &config)
    : cfg_(config)
{
    cfg_.validate();
}

EventExecutionResult
EventExecutor::run(const VpcSchedule &schedule)
{
    const RmParams &rm = cfg_.rm;
    ClockDomain clock(rm.coreFreqHz);
    ProcessorTiming timing(rm);
    RmBusTiming bus_timing(rm);
    ElectricalBusTiming ebus(rm);
    const bool hol = cfg_.headOfLineBlocking();

    Graph g;
    // FIFO predecessor per resource (last node id that occupied it).
    std::vector<int> sub_prev(rm.totalSubarrays(), -1);
    std::vector<int> bank_issue_prev(rm.banks, -1);
    std::vector<int> bank_bus_fwd_prev(rm.banks, -1);
    std::vector<int> bank_bus_ret_prev(rm.banks, -1);
    int dev_fwd_prev = -1;
    int dev_ret_prev = -1;

    // Host link: a serial prefix independent of everything else.
    Tick host_clock = 0;

    std::vector<int> done_node(schedule.batchCount(), -1);
    // Chain node tracking "everything done so far" for barriers.
    int all_done_prev = -1;

    auto bank_of = [&](std::uint32_t s) {
        return s / rm.subarraysPerBank;
    };

    schedule.forEachBatch([&](std::uint32_t i, const VpcBatch &b) {
        host_clock += Tick(b.vpcCount) * cfg_.vpcIssueTicks;
        const Tick ready_base = host_clock;

        int final_node;
        if (b.kind == VpcKind::Tran) {
            const std::uint64_t bytes = b.elements();
            const unsigned row_bytes = cfg_.rowBytes();
            const std::uint64_t rows =
                (bytes + row_bytes - 1) / row_bytes;
            const unsigned src_bank = bank_of(b.subarray);
            const unsigned dst_bank = bank_of(b.dstSubarray);

            int rd = g.addNode(rows * rm.readTicks(), ready_base);
            g.addEndEdge(sub_prev[b.subarray], rd);
            if (b.depA != kNoBatch)
                g.addEndEdge(done_node[b.depA], rd);
            if (b.depB != kNoBatch)
                g.addEndEdge(done_node[b.depB], rd);
            if (b.barrier)
                g.addEndEdge(all_done_prev, rd);
            if (hol) {
                g.addStartEdge(bank_issue_prev[src_bank], rd);
                bank_issue_prev[src_bank] = rd;
            }
            sub_prev[b.subarray] = rd;

            const bool returning = dst_bank >= rm.pimBanks;
            const unsigned bpc = src_bank == dst_bank
                ? SystemConfig::kBankBusBytesPerCycle
                : SystemConfig::kDeviceBusBytesPerCycle;
            const Cycle bus_cycles = (bytes + bpc - 1) / bpc;
            int bs = g.addNode(clock.cyclesToTicks(bus_cycles));
            g.addEndEdge(rd, bs);
            int *bus_prev;
            if (src_bank == dst_bank)
                bus_prev = returning
                    ? &bank_bus_ret_prev[src_bank]
                    : &bank_bus_fwd_prev[src_bank];
            else
                bus_prev = returning ? &dev_ret_prev : &dev_fwd_prev;
            g.addEndEdge(*bus_prev, bs);
            *bus_prev = bs;

            int wr = g.addNode(rows * rm.writeTicks());
            g.addEndEdge(bs, wr);
            g.addEndEdge(sub_prev[b.dstSubarray], wr);
            sub_prev[b.dstSubarray] = wr;
            final_node = wr;
        } else {
            // Compute batch duration identical to the sweep's.
            const std::uint64_t n = b.vectorLen;
            const std::uint64_t count = b.vpcCount;
            Cycle cycles = 0;
            switch (b.kind) {
              case VpcKind::Mul:
                cycles = timing.batchCycles(
                    count, n, timing.dotProductCycles(n),
                    timing.multiplyII());
                break;
              case VpcKind::Smul:
                cycles = timing.batchCycles(
                    count, n, timing.scalarVectorMulCycles(n),
                    timing.multiplyII());
                break;
              case VpcKind::Add:
                cycles = timing.batchCycles(
                    count, n, timing.vectorAddCycles(n),
                    timing.addII());
                break;
              default:
                SPIM_PANIC("unreachable");
            }
            Tick duration = clock.cyclesToTicks(cycles);
            if (cfg_.busType == BusType::RmBus) {
                duration +=
                    clock.cyclesToTicks(bus_timing.segmentCount());
            } else {
                const std::uint64_t elements = b.elements();
                const unsigned result_bits = b.kind == VpcKind::Mul
                    ? 0
                    : (b.kind == VpcKind::Add ? kOperandBits + 1
                                              : kProductBits);
                duration += elements *
                            ebus.perElementConversionTicks(
                                result_bits);
                if (b.kind == VpcKind::Mul)
                    duration += count * ebus.wordEgressTicks(
                                            kAccumulatorBits);
            }

            int node = g.addNode(duration, ready_base);
            g.addEndEdge(sub_prev[b.subarray], node);
            if (b.depA != kNoBatch)
                g.addEndEdge(done_node[b.depA], node);
            if (b.depB != kNoBatch)
                g.addEndEdge(done_node[b.depB], node);
            if (b.barrier)
                g.addEndEdge(all_done_prev, node);
            if (hol) {
                unsigned bank = bank_of(b.subarray);
                g.addStartEdge(bank_issue_prev[bank], node);
                bank_issue_prev[bank] = node;
            }
            sub_prev[b.subarray] = node;
            final_node = node;
        }
        done_node[i] = final_node;

        // Extend the all-done chain for later barriers.
        int chain = g.addNode(0);
        g.addEndEdge(final_node, chain);
        g.addEndEdge(all_done_prev, chain);
        all_done_prev = chain;
    });

    g.resolve();

    // Replay the completions on the event queue so the makespan is
    // read off the simulated clock (and event ordering is checked).
    EventQueue eq;
    EventExecutionResult result;
    result.batchDone.resize(done_node.size());
    for (std::size_t i = 0; i < done_node.size(); ++i) {
        Tick end = g.node(done_node[i]).end;
        result.batchDone[i] = end;
        eq.schedule(end, [] {});
    }
    result.makespan = eq.run();
    return result;
}

} // namespace streampim
