/**
 * @file
 * Energy accounting for device operations.
 *
 * Each operation category carries the per-operation energy of Table
 * III; the meter accumulates counts and picojoules per category so
 * that benches can regenerate the energy breakdowns of Figs. 18/20
 * and Table V.
 */

#ifndef STREAMPIM_RM_ENERGY_HH_
#define STREAMPIM_RM_ENERGY_HH_

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"
#include "rm/params.hh"

namespace streampim
{

/** All energy-bearing operation categories in the system. */
enum class EnergyOp : unsigned
{
    RmRead = 0,     //!< access-port read (electromagnetic conversion)
    RmWrite,        //!< access-port write (electromagnetic conversion)
    RmShift,        //!< in-mat shift step
    BusShift,       //!< RM-bus segment shift
    PimAdd,         //!< domain-wall 8-bit addition
    PimMul,         //!< domain-wall 8-bit multiplication
    DramAccess,     //!< DRAM read/write burst (baselines)
    DramRefresh,    //!< DRAM refresh (baselines)
    BusElectrical,  //!< electrical bus transfer incl. conversion
    HostCompute,    //!< CPU/GPU arithmetic (baselines)
    GuardSense,     //!< guard-domain check (fault detection)
    Redeposit,      //!< re-driven deposit after nucleation failure
    Recovery,       //!< recovery-ladder snapshot/rollback/re-execute
    NumOps,
};

/** Human-readable name of an energy category. */
const char *energyOpName(EnergyOp op);

/** Per-category energy accumulator. */
class EnergyMeter
{
  public:
    EnergyMeter() { reset(); }

    /** Record @p count operations of category @p op at @p pj each. */
    void
    record(EnergyOp op, PicoJoule pj_each, std::uint64_t count = 1)
    {
        auto i = static_cast<unsigned>(op);
        counts_[i] += count;
        energyPj_[i] += pj_each * static_cast<double>(count);
    }

    std::uint64_t
    count(EnergyOp op) const
    {
        return counts_[static_cast<unsigned>(op)];
    }

    PicoJoule
    energyPj(EnergyOp op) const
    {
        return energyPj_[static_cast<unsigned>(op)];
    }

    /** Total across all categories. */
    PicoJoule
    totalPj() const
    {
        PicoJoule sum = 0;
        for (double e : energyPj_)
            sum += e;
        return sum;
    }

    /** Merge another meter into this one. */
    void
    merge(const EnergyMeter &other)
    {
        for (unsigned i = 0; i < kN; ++i) {
            counts_[i] += other.counts_[i];
            energyPj_[i] += other.energyPj_[i];
        }
    }

    void
    reset()
    {
        counts_.fill(0);
        energyPj_.fill(0.0);
    }

    bool operator==(const EnergyMeter &) const = default;

  private:
    static constexpr unsigned kN =
        static_cast<unsigned>(EnergyOp::NumOps);

    std::array<std::uint64_t, kN> counts_;
    std::array<double, kN> energyPj_;
};

/**
 * Convenience recorder bound to one RmParams instance: translates
 * semantic device events into EnergyMeter records using Table III
 * values.
 */
class RmEnergyModel
{
  public:
    RmEnergyModel(const RmParams &params, EnergyMeter &meter)
        : params_(params), meter_(meter)
    {}

    void
    read(std::uint64_t count = 1)
    {
        meter_.record(EnergyOp::RmRead, params_.readPj, count);
    }

    void
    write(std::uint64_t count = 1)
    {
        meter_.record(EnergyOp::RmWrite, params_.writePj, count);
    }

    /** @p steps single-position shift steps on one track. */
    void
    shift(std::uint64_t steps)
    {
        meter_.record(EnergyOp::RmShift, params_.shiftPj, steps);
    }

    /**
     * One bus shift pulse advancing a data/empty segment couple by
     * one segment length on one lane. The pulse current scales with
     * the driven wire length (2 x segment size) and its duration
     * with the shift distance (1 x segment size), so pulse energy
     * scales quadratically with segment size; the Table III shift
     * energy is referenced to the default 1024-domain segment. The
     * product of (pulses needed) x (energy per pulse) is then
     * independent of segment size, which is exactly why Table V
     * reports nearly constant energy across segment sizes.
     */
    void
    busShift(unsigned segment_domains, std::uint64_t count = 1)
    {
        double scale = double(segment_domains) /
                       double(kReferenceSegmentDomains);
        meter_.record(EnergyOp::BusShift,
                      params_.shiftPj * scale * scale, count);
    }

    /**
     * One in-mat streaming shift pulse: the shift driver advances a
     * whole mat row (all track groups in parallel) by one domain,
     * delivering one row of elements toward the RM bus.
     */
    void
    matStreamShift(std::uint64_t pulses)
    {
        meter_.record(EnergyOp::RmShift, params_.shiftPj, pulses);
    }

    /** Segment size the Table III bus shift energy is quoted for. */
    static constexpr unsigned kReferenceSegmentDomains = 1024;

    void
    pimAdd(std::uint64_t count = 1)
    {
        meter_.record(EnergyOp::PimAdd, params_.pimAddPj, count);
    }

    void
    pimMul(std::uint64_t count = 1)
    {
        meter_.record(EnergyOp::PimMul, params_.pimMulPj, count);
    }

    /**
     * One guard-domain sense: a transverse read of the guard
     * positions of one segment. Charged at the access-port read
     * energy — the sense amplifier path is the same; only the
     * addressed domains differ.
     */
    void
    guardSense(std::uint64_t count = 1)
    {
        meter_.record(EnergyOp::GuardSense, params_.readPj, count);
    }

    /**
     * One re-driven deposit pulse after a nucleation failure: the
     * write driver re-nucleates the domain, costing a full write
     * quantum (the failed pulse already dissipated one).
     */
    void
    redeposit(std::uint64_t count = 1)
    {
        meter_.record(EnergyOp::Redeposit, params_.writePj, count);
    }

    /**
     * One row of recovery-ladder traffic (journal snapshot,
     * rollback restore, or re-execution of a rolled-back VPC): a
     * full read-then-write row quantum, charged to its own category
     * so fault-recovery overhead stays visible next to useful work
     * (runtime/recovery.hh).
     */
    void
    recoveryRow(std::uint64_t rows = 1)
    {
        meter_.record(EnergyOp::Recovery,
                      params_.readPj + params_.writePj, rows);
    }

  private:
    const RmParams &params_;
    EnergyMeter &meter_;
};

} // namespace streampim

#endif // STREAMPIM_RM_ENERGY_HH_
