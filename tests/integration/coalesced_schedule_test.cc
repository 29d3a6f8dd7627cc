/**
 * @file
 * The run-length schedule end to end: every figure/table task graph
 * executes to the same report whether its schedule is coalesced or a
 * one-descriptor-per-batch copy, and the paper DNNs keep coalescing
 * into few runs (a planner change that breaks the runs fails here on
 * any host, with no timing involved).
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/executor.hh"
#include "runtime/planner.hh"
#include "support/schedules.hh"
#include "workloads/dnn.hh"
#include "workloads/polybench.hh"

namespace streampim
{
namespace
{

void
expectSameReport(const ExecutionReport &a, const ExecutionReport &b,
                 const std::string &what)
{
    EXPECT_EQ(a.makespan, b.makespan) << what;
    for (unsigned op = 0; op < unsigned(EnergyOp::NumOps); ++op) {
        EXPECT_EQ(a.energy.count(EnergyOp(op)),
                  b.energy.count(EnergyOp(op)))
            << what << " " << energyOpName(EnergyOp(op));
        // Exact: energy is recorded per logical batch, in order.
        EXPECT_EQ(a.energy.energyPj(EnergyOp(op)),
                  b.energy.energyPj(EnergyOp(op)))
            << what << " " << energyOpName(EnergyOp(op));
    }
    const TimeBreakdown &x = a.breakdown, &y = b.breakdown;
    EXPECT_EQ(x.readTicks, y.readTicks) << what;
    EXPECT_EQ(x.writeTicks, y.writeTicks) << what;
    EXPECT_EQ(x.shiftTicks, y.shiftTicks) << what;
    EXPECT_EQ(x.processTicks, y.processTicks) << what;
    EXPECT_EQ(x.recoveryTicks, y.recoveryTicks) << what;
    EXPECT_EQ(x.exclusiveTransfer, y.exclusiveTransfer) << what;
    EXPECT_EQ(x.exclusiveProcess, y.exclusiveProcess) << what;
    EXPECT_EQ(x.overlapped, y.overlapped) << what;
    EXPECT_EQ(x.idle, y.idle) << what;
    EXPECT_EQ(a.pimVpcs, b.pimVpcs) << what;
    EXPECT_EQ(a.moveVpcs, b.moveVpcs) << what;
    EXPECT_EQ(a.batches, b.batches) << what;
    EXPECT_EQ(a.maxSubarrayBusy, b.maxSubarrayBusy) << what;
    EXPECT_EQ(a.maxBankBusBusy, b.maxBankBusBusy) << what;
    EXPECT_EQ(a.deviceBusBusy, b.deviceBusBusy) << what;
    EXPECT_EQ(a.hostLinkBusy, b.hostLinkBusy) << what;
}

/** The same logical batches as @p s, one descriptor each. */
VpcSchedule
repeatOneCopy(const VpcSchedule &s)
{
    VpcSchedule flat;
    flat.batches = expandedBatches(s);
    flat.opResultBatch = s.opResultBatch;
    return flat;
}

void
expectCoalescingInvisible(const SystemConfig &cfg, const TaskGraph &g,
                          const std::string &what)
{
    Planner p(cfg);
    const VpcSchedule s = p.plan(g);
    const VpcSchedule flat = repeatOneCopy(s);
    ASSERT_EQ(flat.batchCount(), s.batchCount()) << what;
    Executor ex(cfg);
    expectSameReport(ex.run(s), ex.run(flat), what);
}

/** The quick-mode (dim 256) kernels under each figure's configs. */
TEST(CoalescedSchedule, QuickKernelsReportAsRepeatOneCopies)
{
    std::vector<std::pair<std::string, SystemConfig>> cfgs;
    for (OptLevel level : {OptLevel::Base, OptLevel::Distribute,
                           OptLevel::Unblock}) {
        SystemConfig cfg = SystemConfig::paperDefault();
        cfg.optLevel = level;
        cfgs.push_back({optLevelName(level), cfg});
    }
    SystemConfig ebus = SystemConfig::paperDefault();
    ebus.busType = BusType::Electrical; // fig17/18 StPIM-e
    cfgs.push_back({"electrical", ebus});
    SystemConfig narrow = SystemConfig::paperDefault();
    narrow.rm.subarraysPerBank = 32 / narrow.rm.pimBanks; // fig21
    narrow.rm.matsPerSubarray = 16 * 64 / narrow.rm.subarraysPerBank;
    cfgs.push_back({"32 subarrays", narrow});
    SystemConfig faulty = SystemConfig::paperDefault();
    faulty.rm.shiftFaultPStep = 1e-5; // closed-form fault overheads
    faulty.rm.writeFaultP0 = 1e-4;
    cfgs.push_back({"faults", faulty});

    for (const auto &[name, cfg] : cfgs)
        for (PolybenchKernel k : allPolybenchKernels())
            expectCoalescingInvisible(
                cfg, makePolybench(k, 256),
                name + " " + polybenchName(k));
}

/** fig23's networks; one BERT layer lowers like every other. */
TEST(CoalescedSchedule, DnnsReportAsRepeatOneCopies)
{
    const SystemConfig cfg = SystemConfig::paperDefault();
    expectCoalescingInvisible(cfg, makeMlp(MlpConfig{}), "MLP");
    BertConfig bert;
    bert.layers = 1;
    expectCoalescingInvisible(cfg, makeBert(bert), "BERT");
}

/**
 * Compression gate: the paper DNNs plan to the same logical batches
 * as ever, in few descriptors (110,784 and 104,847 when this gate
 * was set).
 */
TEST(ScheduleCompression, PaperDnnsCoalesceIntoFewRuns)
{
    const SystemConfig cfg = SystemConfig::paperDefault();
    Planner p(cfg);
    BertConfig bert;
    bert.layers = 2;
    const VpcSchedule b = p.plan(makeBert(bert));
    EXPECT_EQ(b.batchCount(), 7101444u);
    EXPECT_EQ(p.stats().batches, 7101444u);
    EXPECT_LE(b.batches.size(), 120000u);

    const VpcSchedule m = p.plan(makeMlp(MlpConfig{}));
    EXPECT_EQ(m.batchCount(), 3220739u);
    EXPECT_EQ(p.stats().batches, 3220739u);
    EXPECT_LE(m.batches.size(), 110000u);
}

} // namespace
} // namespace streampim
