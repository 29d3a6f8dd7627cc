#include "core/executor.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/log.hh"

namespace streampim
{

namespace
{

/** Batches of one shape cost the same (Executor::BatchCost). */
bool
sameShape(const VpcBatch &a, const VpcBatch &b)
{
    return a.kind == b.kind && a.vpcCount == b.vpcCount &&
           a.vectorLen == b.vectorLen && a.recovery == b.recovery;
}

} // namespace

Executor::Executor(const SystemConfig &config)
    : cfg_(config), clock_(cfg_.rm.coreFreqHz),
      procTiming_(cfg_.rm), busTiming_(cfg_.rm),
      eBusTiming_(cfg_.rm),
      writeModel_(cfg_.rm.writeFaultP0, cfg_.rm.writeEndurance,
                  cfg_.rm.weibullShape),
      energy_(cfg_.rm, meter_),
      subarrays_(cfg_.rm.totalSubarrays()),
      bankIssueFree_(cfg_.rm.banks, 0),
      bankBusFwd_(cfg_.rm.banks), bankBusRet_(cfg_.rm.banks)
{
    cfg_.validate();
}

std::uint64_t
Executor::expectedRedeposits(std::uint64_t deposit_bytes) const
{
    if (cfg_.rm.writeFaultP0 <= 0.0 || deposit_bytes == 0)
        return 0;
    // One nucleation per bit track, matching the functional model's
    // depositPulses granularity. Each expected failure re-drives the
    // write pulse, stalling the destination stream one write
    // quantum (conservative: re-driven tracks do not overlap).
    return std::uint64_t(std::ceil(
        writeModel_.expectedRedeposits(deposit_bytes * 8)));
}

unsigned
Executor::bankOf(std::uint32_t subarray) const
{
    SPIM_ASSERT(subarray < subarrays_.size(),
                "subarray ", subarray, " out of range");
    return subarray / cfg_.rm.subarraysPerBank;
}

std::uint64_t
Executor::resultElementsPerVpc(const VpcBatch &batch) const
{
    switch (batch.kind) {
      case VpcKind::Mul:
        return 1; // dot product emits one scalar
      case VpcKind::Smul:
      case VpcKind::Add:
        return batch.vectorLen;
      case VpcKind::Tran:
        return 0;
    }
    return 0;
}

Cycle
Executor::computeCycles(const VpcBatch &batch) const
{
    const std::uint64_t n = batch.vectorLen;
    const std::uint64_t count = batch.vpcCount;
    switch (batch.kind) {
      case VpcKind::Mul:
        return procTiming_.batchCycles(
            count, n, procTiming_.dotProductCycles(n),
            procTiming_.multiplyII());
      case VpcKind::Smul:
        return procTiming_.batchCycles(
            count, n, procTiming_.scalarVectorMulCycles(n),
            procTiming_.multiplyII());
      case VpcKind::Add:
        return procTiming_.batchCycles(
            count, n, procTiming_.vectorAddCycles(n),
            procTiming_.addII());
      case VpcKind::Tran:
        break;
    }
    SPIM_PANIC("computeCycles on a TRAN batch");
}

Executor::BatchCost
Executor::transferCost(const VpcBatch &batch) const
{
    BatchCost c;
    const std::uint64_t bytes = batch.elements();
    const unsigned row_bytes = cfg_.rowBytes();
    c.rows = (bytes + row_bytes - 1) / row_bytes;
    // Source read and destination write: electromagnetic
    // conversion, one row op per row, plus the expected re-driven
    // deposits under write-endurance faults.
    c.readTime = c.rows * cfg_.rm.readTicks();
    c.redeposits = expectedRedeposits(bytes);
    c.writeTime = c.rows * cfg_.rm.writeTicks() +
                  c.redeposits * cfg_.rm.writeTicks();
    auto bus_time = [&](unsigned bytes_per_cycle) {
        return clock_.cyclesToTicks(
            (bytes + bytes_per_cycle - 1) / bytes_per_cycle);
    };
    c.bankBusTime = bus_time(SystemConfig::kBankBusBytesPerCycle);
    c.deviceBusTime = bus_time(SystemConfig::kDeviceBusBytesPerCycle);
    return c;
}

Executor::BatchCost
Executor::computeCost(const VpcBatch &batch) const
{
    BatchCost c;
    const std::uint64_t elements = batch.elements();
    const std::uint64_t operand_streams =
        batch.kind == VpcKind::Add || batch.kind == VpcKind::Mul ? 2
                                                                 : 1;
    const std::uint64_t in_elements = elements * operand_streams;
    const std::uint64_t out_elements =
        std::uint64_t(batch.vpcCount) * resultElementsPerVpc(batch);
    const std::uint64_t streamed = in_elements + out_elements;

    c.processTime = clock_.cyclesToTicks(computeCycles(batch));
    if (cfg_.busType == BusType::RmBus) {
        // The segmented bus streams operands concurrently with
        // processing; only the first-wave traversal is exposed.
        c.fillTime = clock_.cyclesToTicks(busTiming_.segmentCount());
        c.busPulses = busTiming_.pulsesFor(streamed);
        // Mat streaming shifts: the subarray's shift driver pulses
        // all active mats together, so one row pulse advances every
        // operand/result stream by one row of rowBytes elements.
        c.matPulses =
            (elements + cfg_.rowBytes() - 1) / cfg_.rowBytes();
        c.shiftTime =
            c.fillTime +
            clock_.cyclesToTicks(busTiming_.transferCycles(streamed));
        // Shift-fault tolerance: expected guard-sense + correction
        // overhead of the streamed elements (closed form, so the
        // timed path stays deterministic). Corrections stall the
        // stream, so they serialize with processing.
        if (cfg_.rm.shiftFaultPStep > 0.0 && streamed > 0) {
            const Tick rel_time = clock_.cyclesToTicks(
                busTiming_.reliabilityCycles(streamed));
            c.tailTime += rel_time;
            c.shiftTime += rel_time;
            c.guardSenses = busTiming_.pulsesFor(streamed);
            c.corrections = std::uint64_t(std::ceil(
                busTiming_.expectedCorrectionShifts(streamed)));
        }
        // Write-endurance tolerance: expected re-driven deposits of
        // the result stream committing into the destination mats.
        c.redeposits = expectedRedeposits(out_elements);
        c.writeTime = c.redeposits * cfg_.rm.writeTicks();
        c.tailTime += c.writeTime;
    } else {
        // Electrical bus: per-element electromagnetic conversion,
        // serialized with shift-based computation (RW/shift
        // exclusion), plus per-VPC egress of dot-product scalars.
        const unsigned result_bits = batch.kind == VpcKind::Mul
            ? 0
            : (batch.kind == VpcKind::Add ? kOperandBits + 1
                                          : kProductBits);
        c.tailTime =
            elements *
            eBusTiming_.perElementConversionTicks(result_bits);
        if (batch.kind == VpcKind::Mul)
            c.tailTime += std::uint64_t(batch.vpcCount) *
                          eBusTiming_.wordEgressTicks(
                              kAccumulatorBits);
        c.writeTime = c.tailTime;
    }
    return c;
}

Tick
Executor::runTransfer(const VpcBatch &batch, const BatchCost &c,
                      Tick ready)
{
    const unsigned src_bank = bankOf(batch.subarray);
    const unsigned dst_bank = bankOf(batch.dstSubarray);

    // In-order issue with head-of-line blocking at the source bank:
    // the command occupies the issue slot until its source subarray
    // grants the read. Under unblock, issue is effectively
    // per-subarray (Sec. IV-C) and the queue never blocks.
    const bool hol = cfg_.headOfLineBlocking();
    Tick issue = hol ? std::max(ready, bankIssueFree_[src_bank])
                     : ready;

    TickSpan rd = subarrays_[batch.subarray].acquire(issue, c.readTime);
    if (hol)
        bankIssueFree_[src_bank] = rd.start;

    // Bus hop(s): bank-internal bus for same-bank transfers, the
    // shared device bus across banks; results heading to the
    // memory/staging banks ride the return channel.
    const bool returning = dst_bank >= cfg_.rm.pimBanks;
    const bool same_bank = src_bank == dst_bank;
    TickResource &bus = same_bank
        ? (returning ? bankBusRet_[src_bank] : bankBusFwd_[src_bank])
        : (returning ? deviceBusRet_ : deviceBusFwd_);
    TickSpan bs = bus.acquire(
        rd.end, same_bank ? c.bankBusTime : c.deviceBusTime);

    if (c.redeposits > 0)
        energy_.redeposit(c.redeposits);
    TickSpan wr = subarrays_[batch.dstSubarray].acquire(bs.end,
                                                        c.writeTime);

    // Accounting. Row operations are driver-dominated: one
    // read/write energy quantum per row op regardless of width.
    // Recovery copies are charged under their own category so the
    // fault-recovery overhead stays visible instead of blending
    // into workload read/write traffic.
    if (batch.recovery) {
        energy_.recoveryRow(c.rows);
        breakdown_.recoveryTicks += c.readTime + c.writeTime;
    } else {
        energy_.read(c.rows);
        energy_.write(c.rows);
        breakdown_.readTicks += c.readTime;
        breakdown_.writeTicks += c.writeTime;
    }
    coverage_.add(CoverageKind::Transfer, batch.subarray, rd.start,
                  rd.end);
    coverage_.add(CoverageKind::Transfer, batch.dstSubarray, wr.start,
                  wr.end);
    return wr.end;
}

Tick
Executor::runCompute(const VpcBatch &batch, const BatchCost &c,
                     Tick ready)
{
    const unsigned bank = bankOf(batch.subarray);
    const std::uint64_t elements = batch.elements();

    // Bus energy of this batch, from the shape's counts (same
    // records, same order as computing them here).
    if (cfg_.busType == BusType::RmBus) {
        energy_.busShift(cfg_.rm.busSegmentSize, c.busPulses);
        energy_.matStreamShift(c.matPulses);
        if (cfg_.rm.shiftFaultPStep > 0.0) {
            energy_.guardSense(c.guardSenses);
            energy_.shift(c.corrections);
        }
        if (c.redeposits > 0)
            energy_.redeposit(c.redeposits);
        breakdown_.shiftTicks += c.shiftTime;
    } else {
        const std::uint64_t out_elements =
            std::uint64_t(batch.vpcCount) * resultElementsPerVpc(batch);
        eBusTiming_.recordIngressEnergy(energy_, meter_, elements);
        eBusTiming_.recordEgressEnergy(
            meter_, out_elements == 0 ? batch.vpcCount : out_elements,
            out_elements == 0 ? kAccumulatorBits : kProductBits);
    }
    breakdown_.writeTicks += c.writeTime;

    const Tick duration = c.fillTime + c.processTime + c.tailTime;

    const bool hol = cfg_.headOfLineBlocking();
    Tick issue = hol ? std::max(ready, bankIssueFree_[bank]) : ready;
    TickSpan span = subarrays_[batch.subarray].acquire(issue, duration);
    if (hol)
        bankIssueFree_[bank] = span.start;

    // Per-element processor energy.
    switch (batch.kind) {
      case VpcKind::Mul:
        energy_.pimMul(elements);
        energy_.pimAdd(elements);
        break;
      case VpcKind::Smul:
        energy_.pimMul(elements);
        break;
      case VpcKind::Add:
        energy_.pimAdd(elements);
        break;
      case VpcKind::Tran:
        SPIM_PANIC("unreachable");
    }

    breakdown_.processTicks += c.processTime;
    // Re-executed (recovery-ladder) compute batches additionally
    // attribute their pipeline time to the Recovery category: the
    // raw per-category sums may overlap (header note), and this
    // keeps re-execution overhead visible without hiding that the
    // work itself is ordinary PIM compute (energy stays in the pim
    // categories — the arithmetic is real either way).
    if (batch.recovery)
        breakdown_.recoveryTicks += c.processTime;
    // Within the grant: bus fill, then processing, then the
    // serialized tail (corrections, re-deposits, conversion).
    coverage_.add(CoverageKind::Transfer, batch.subarray, span.start,
                  span.start + c.fillTime);
    coverage_.add(CoverageKind::Process, batch.subarray,
                  span.start + c.fillTime,
                  span.start + c.fillTime + c.processTime);
    coverage_.add(CoverageKind::Transfer, batch.subarray,
                  span.end - c.tailTime, span.end);
    return span.end;
}

ExecutionReport
Executor::run(const VpcSchedule &schedule)
{
    // Reset per-run state so an Executor can be reused.
    meter_.reset();
    for (auto &s : subarrays_)
        s.reset();
    std::fill(bankIssueFree_.begin(), bankIssueFree_.end(), 0);
    for (auto &b : bankBusFwd_)
        b.reset();
    for (auto &b : bankBusRet_)
        b.reset();
    deviceBusFwd_.reset();
    deviceBusRet_.reset();
    hostLink_.reset();
    breakdown_ = TimeBreakdown{};
    coverage_.reset(subarrays_.size());

    // Completion ticks live in a ring that spans the longest
    // dependency distance, so dependencies read live slots only.
    const std::uint64_t window = schedule.maxDepDistance();
    done_.assign(std::bit_ceil(window + 1), 0);
    const std::uint64_t mask = done_.size() - 1;
    Tick all_done = 0;
    std::uint64_t pim_vpcs = 0;
    std::uint64_t move_vpcs = 0;

    // What a run's batches share is worked out once per descriptor:
    // the kind, the VPC tallies, the host-link slot and the cost of
    // the shape, recomputed only when the shape changes.
    bool pim = false;
    Tick host_slot = 0;
    BatchCost cost;
    VpcBatch shape;
    bool shape_known = false;
    auto on_run = [&](const VpcBatch &run) {
        pim = isPimVpc(run.kind);
        (pim ? pim_vpcs : move_vpcs) +=
            std::uint64_t(run.vpcCount) * run.repeat;
        // Host link: commands stream to the device asynchronously;
        // each VPC costs a fixed serialization slot.
        host_slot = Tick(run.vpcCount) * cfg_.vpcIssueTicks;
        if (!shape_known || !sameShape(run, shape)) {
            cost = pim ? computeCost(run) : transferCost(run);
            shape = run;
            shape_known = true;
        }
    };

    schedule.forEachBatch(on_run, [&](std::uint32_t i,
                                      const VpcBatch &b) {
        Tick ready = hostLink_.acquire(0, host_slot).end;
        if (b.barrier)
            ready = std::max(ready, all_done);
        if (b.depA != kNoBatch) {
            SPIM_ASSERT(b.depA < i, "forward dependency");
            SPIM_ASSERT(i - b.depA <= window, "dependency outside the "
                        "window of ", window, " batches");
            ready = std::max(ready, done_[b.depA & mask]);
        }
        if (b.depB != kNoBatch) {
            SPIM_ASSERT(b.depB < i, "forward dependency");
            SPIM_ASSERT(i - b.depB <= window, "dependency outside the "
                        "window of ", window, " batches");
            ready = std::max(ready, done_[b.depB & mask]);
        }

        const Tick end = pim ? runCompute(b, cost, ready)
                             : runTransfer(b, cost, ready);
        done_[i & mask] = end;
        all_done = std::max(all_done, end);
    });

    ExecutionReport report;
    report.makespan = all_done;
    report.energy = meter_;
    report.pimVpcs = pim_vpcs;
    report.moveVpcs = move_vpcs;
    report.batches = schedule.batchCount();
    for (const auto &s : subarrays_)
        report.maxSubarrayBusy =
            std::max(report.maxSubarrayBusy, s.busyTicks());
    for (const auto &b : bankBusFwd_)
        report.maxBankBusBusy =
            std::max(report.maxBankBusBusy, b.busyTicks());
    for (const auto &b : bankBusRet_)
        report.maxBankBusBusy =
            std::max(report.maxBankBusBusy, b.busyTicks());
    report.deviceBusBusy =
        deviceBusFwd_.busyTicks() + deviceBusRet_.busyTicks();
    report.hostLinkBusy = hostLink_.busyTicks();

    // Coverage breakdown (Fig. 19): union lengths of transfer and
    // process spans, their intersection via inclusion-exclusion.
    const Coverage cov = coverage_.finish();
    breakdown_.overlapped = cov.transfer + cov.process - cov.either;
    breakdown_.exclusiveTransfer = cov.transfer - breakdown_.overlapped;
    breakdown_.exclusiveProcess = cov.process - breakdown_.overlapped;
    breakdown_.idle = all_done > cov.either ? all_done - cov.either : 0;
    report.breakdown = breakdown_;
    return report;
}

} // namespace streampim
