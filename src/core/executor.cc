#include "core/executor.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace streampim
{

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

Tick
Executor::redepositTicks(std::uint64_t deposit_bytes)
{
    if (cfg_.rm.writeFaultP0 <= 0.0 || deposit_bytes == 0)
        return 0;
    // One nucleation per bit track, matching the functional model's
    // depositPulses granularity. Each expected failure re-drives the
    // write pulse, stalling the destination stream one write
    // quantum (conservative: re-driven tracks do not overlap).
    const std::uint64_t redeposits = std::uint64_t(std::ceil(
        writeModel_.expectedRedeposits(deposit_bytes * 8)));
    if (redeposits == 0)
        return 0;
    energy_.redeposit(redeposits);
    return redeposits * cfg_.rm.writeTicks();
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

Tick
Executor::runTransfer(const VpcBatch &batch, Tick ready)
{
    const std::uint64_t bytes = batch.elements();
    const unsigned row_bytes = cfg_.rowBytes();
    const std::uint64_t rows = (bytes + row_bytes - 1) / row_bytes;

    const unsigned src_bank = bankOf(batch.subarray);
    const unsigned dst_bank = bankOf(batch.dstSubarray);

    // In-order issue with head-of-line blocking at the source bank:
    // the command occupies the issue slot until its source subarray
    // grants the read. Under unblock, issue is effectively
    // per-subarray (Sec. IV-C) and the queue never blocks.
    const bool hol = cfg_.headOfLineBlocking();
    Tick issue = hol ? std::max(ready, bankIssueFree_[src_bank])
                     : ready;

    // Source read: electromagnetic conversion, one row op per row.
    const Tick read_time = rows * cfg_.rm.readTicks();
    TickSpan rd = subarrays_[batch.subarray].acquire(issue, read_time);
    if (hol)
        bankIssueFree_[src_bank] = rd.start;

    // Bus hop(s): bank-internal bus for same-bank transfers, the
    // shared device bus across banks; results heading to the
    // memory/staging banks ride the return channel.
    const bool returning = dst_bank >= cfg_.rm.pimBanks;
    TickResource &bus = (src_bank == dst_bank)
        ? (returning ? bankBusRet_[src_bank] : bankBusFwd_[src_bank])
        : (returning ? deviceBusRet_ : deviceBusFwd_);
    const unsigned bus_bpc = (src_bank == dst_bank)
        ? cfg_.bankBusBytesPerCycle
        : cfg_.deviceBusBytesPerCycle;
    const Cycle bus_cycles = (bytes + bus_bpc - 1) / bus_bpc;
    TickSpan bs = bus.acquire(rd.end, clock_.cyclesToTicks(bus_cycles));

    // Destination write: conversion again, one row op per row, plus
    // the expected re-driven deposits under write-endurance faults.
    const Tick write_time =
        rows * cfg_.rm.writeTicks() + redepositTicks(bytes);
    TickSpan wr = subarrays_[batch.dstSubarray].acquire(bs.end,
                                                        write_time);

    // Accounting. Row operations are driver-dominated: one
    // read/write energy quantum per row op regardless of width.
    // Health-policy migration copies are charged under their own
    // category so the lifetime-extension overhead stays visible
    // instead of blending into workload read/write traffic.
    if (batch.recovery) {
        energy_.recoveryRow(rows);
        breakdown_.recoveryTicks += read_time + write_time;
    } else if (batch.migration) {
        energy_.migrationRow(rows);
        breakdown_.migrationTicks += read_time + write_time;
    } else {
        energy_.read(rows);
        energy_.write(rows);
        breakdown_.readTicks += read_time;
        breakdown_.writeTicks += write_time;
    }
    coverage_.add(CoverageKind::Transfer, batch.subarray, rd.start,
                  rd.end);
    coverage_.add(CoverageKind::Transfer, batch.dstSubarray, wr.start,
                  wr.end);
    return wr.end;
}

Tick
Executor::runCompute(const VpcBatch &batch, Tick ready)
{
    const unsigned bank = bankOf(batch.subarray);
    const std::uint64_t elements = batch.elements();
    const std::uint64_t operand_streams =
        batch.kind == VpcKind::Add || batch.kind == VpcKind::Mul ? 2
                                                                 : 1;
    const std::uint64_t in_elements = elements * operand_streams;
    const std::uint64_t out_elements =
        std::uint64_t(batch.vpcCount) * resultElementsPerVpc(batch);

    const Cycle pipe_cycles = computeCycles(batch);
    const Tick process_time = clock_.cyclesToTicks(pipe_cycles);

    Tick transfer_time = 0; //!< serialized (non-overlapped) part
    Tick fill_time = 0;     //!< RM-bus first-wave fill latency

    if (cfg_.busType == BusType::RmBus) {
        // The segmented bus streams operands concurrently with
        // processing; only the first-wave traversal is exposed.
        fill_time = clock_.cyclesToTicks(busTiming_.segmentCount());
        busTiming_.recordTransferEnergy(energy_,
                                        in_elements + out_elements);
        // Mat streaming shifts: the subarray's shift driver pulses
        // all active mats together, so one row pulse advances every
        // operand/result stream by one row of rowBytes elements.
        const std::uint64_t pulses =
            (elements + cfg_.rowBytes() - 1) / cfg_.rowBytes();
        energy_.matStreamShift(pulses);
        breakdown_.shiftTicks +=
            fill_time +
            clock_.cyclesToTicks(busTiming_.transferCycles(
                in_elements + out_elements));
        // Shift-fault tolerance: expected guard-sense + correction
        // overhead of the streamed elements (closed form, so the
        // timed path stays deterministic). Corrections stall the
        // stream, so they serialize with processing.
        if (cfg_.rm.shiftFaultPStep > 0.0) {
            const Tick rel_time =
                clock_.cyclesToTicks(busTiming_.reliabilityCycles(
                    in_elements + out_elements));
            transfer_time += rel_time;
            breakdown_.shiftTicks += rel_time;
            busTiming_.recordReliabilityEnergy(
                energy_, in_elements + out_elements);
        }
        // Write-endurance tolerance: expected re-driven deposits of
        // the result stream committing into the destination mats.
        const Tick red = redepositTicks(out_elements);
        transfer_time += red;
        breakdown_.writeTicks += red;
    } else {
        // Electrical bus: per-element electromagnetic conversion,
        // serialized with shift-based computation (RW/shift
        // exclusion), plus per-VPC egress of dot-product scalars.
        const unsigned result_bits = batch.kind == VpcKind::Mul
            ? 0
            : (batch.kind == VpcKind::Add ? kOperandBits + 1
                                          : kProductBits);
        transfer_time +=
            elements *
            eBusTiming_.perElementConversionTicks(result_bits);
        if (batch.kind == VpcKind::Mul)
            transfer_time += std::uint64_t(batch.vpcCount) *
                             eBusTiming_.wordEgressTicks(
                                 kAccumulatorBits);
        eBusTiming_.recordIngressEnergy(energy_, meter_, elements);
        eBusTiming_.recordEgressEnergy(
            meter_, out_elements == 0 ? batch.vpcCount : out_elements,
            out_elements == 0 ? kAccumulatorBits : kProductBits);
        breakdown_.writeTicks += transfer_time;
    }

    const Tick duration = fill_time + process_time + transfer_time;

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

    breakdown_.processTicks += process_time;
    // Re-executed (recovery-ladder) compute batches additionally
    // attribute their pipeline time to the Recovery category: the
    // raw per-category sums may overlap (header note), and this
    // keeps re-execution overhead visible without hiding that the
    // work itself is ordinary PIM compute (energy stays in the pim
    // categories — the arithmetic is real either way).
    if (batch.recovery)
        breakdown_.recoveryTicks += process_time;
    // Within the grant: bus fill, then processing, then the
    // serialized tail (corrections, re-deposits, conversion).
    coverage_.add(CoverageKind::Transfer, batch.subarray, span.start,
                  span.start + fill_time);
    coverage_.add(CoverageKind::Process, batch.subarray,
                  span.start + fill_time,
                  span.start + fill_time + process_time);
    coverage_.add(CoverageKind::Transfer, batch.subarray,
                  span.end - transfer_time, span.end);
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

    done_.assign(schedule.batchCount(), 0);
    Tick all_done = 0;
    std::uint64_t pim_vpcs = 0;
    std::uint64_t move_vpcs = 0;

    schedule.forEachBatch([&](std::uint32_t i, const VpcBatch &b) {
        // Host link: commands stream to the device asynchronously;
        // each VPC costs a fixed serialization slot.
        TickSpan host = hostLink_.acquire(
            0, Tick(b.vpcCount) * cfg_.vpcIssueTicks);

        Tick ready = host.end;
        if (b.barrier)
            ready = std::max(ready, all_done);
        if (b.depA != kNoBatch) {
            SPIM_ASSERT(b.depA < i, "forward dependency");
            ready = std::max(ready, done_[b.depA]);
        }
        if (b.depB != kNoBatch) {
            SPIM_ASSERT(b.depB < i, "forward dependency");
            ready = std::max(ready, done_[b.depB]);
        }

        const bool pim = isPimVpc(b.kind);
        (pim ? pim_vpcs : move_vpcs) += b.vpcCount;
        const Tick end =
            pim ? runCompute(b, ready) : runTransfer(b, ready);
        done_[i] = end;
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
