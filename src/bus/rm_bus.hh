/**
 * @file
 * The segmented domain-wall nanowire bus (Sec. III-D, Fig. 12).
 *
 * Design recap: a bus nanowire is divided into equal-length segments.
 * A segment either carries data or is empty, and every data segment
 * is followed by an empty segment in the transfer direction. Each
 * cycle, every data/empty segment couple shifts by exactly one
 * segment length, which (1) makes the shift-current duration and
 * density constant, (2) pipelines transfers from different sources,
 * and (3) bounds shift-fault accumulation to one segment per pulse.
 *
 * Two models live here:
 *  - RmBusLane / RmBus: the functional model that carries every
 *    streamed word of the datapath, at two levels. The fast path
 *    resolves a fault-free transfer in closed form (words leave in
 *    injection order after a fixed pipeline depth). The oracle is
 *    the per-segment sweep of RmBusLane::step, one pulse per couple
 *    per cycle; it runs every fallible transfer (sampling each
 *    pulse), every strict-mode transfer (STREAMPIM_STRICT_GATES,
 *    dwlogic/mode.hh), the tests and the bus_inspector example;
 *  - RmBusTiming: closed-form cycles/energy used by the timed
 *    architecture simulation, validated against the functional model.
 */

#ifndef STREAMPIM_BUS_RM_BUS_HH_
#define STREAMPIM_BUS_RM_BUS_HH_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hh"
#include "rm/energy.hh"
#include "rm/fault.hh"
#include "rm/params.hh"

namespace streampim
{

class FaultInjector;

/** One nanowire lane of the segmented RM bus (functional model). */
class RmBusLane
{
  public:
    /** @param segments number of segments along the lane. */
    explicit RmBusLane(unsigned segments);

    unsigned segments() const { return segments_; }

    /**
     * Inject a word into segment 0.
     * @return false if segment 0 is still occupied (caller retries
     * next cycle) — the "data segment must be followed by an empty
     * segment" rule makes injection possible at most every other
     * cycle in steady state.
     */
    bool inject(std::uint64_t word);

    /**
     * Advance one bus clock: every data segment whose successor is
     * empty moves forward one segment (all couples shift with one
     * pulse each, Fig. 12), swept segment by segment from the output
     * end. With an enabled fault injector, each couple's pulse of
     * @p segment_domains domain steps may over- or under-shift the
     * word by one position within its segment.
     * @return number of data segments that moved.
     */
    unsigned step(FaultInjector *faults = nullptr,
                  unsigned segment_domains = 0);

    /**
     * In-flight guard-domain checks after a pulse: every occupied
     * segment's guard pattern is sensed (detection succeeds with the
     * configured coverage), and detected misalignments are realigned
     * with fallible compensating single-step shifts under the retry
     * budget. Errors beyond the guard's localization range, or
     * exhausted budgets, abandon the word (it arrives corrupted and
     * the current VPC escalates to FaultStatus::Failed).
     */
    void guardRealign(FaultInjector &faults);

    /** Word waiting at the output segment, if any. */
    std::optional<std::uint64_t> peekOutput() const;

    /** Remove and return the word at the output segment. */
    std::optional<std::uint64_t> takeOutput();

    /**
     * Remove the word at the output segment through the egress
     * checkpoint: sensing the word at the port makes the guard
     * pattern directly visible, so this check is exact (not
     * coverage-limited). Residual misalignment is realigned (still
     * fallibly) before the word is read; an abandoned word is
     * returned corrupted — value displaced by the misalignment —
     * with the failure already escalated via @p faults.
     */
    std::optional<std::uint64_t> takeOutputChecked(
        FaultInjector *faults);

    /** Number of data segments currently in flight. */
    unsigned occupancy() const;

    /** True if every segment is empty. */
    bool drained() const { return occupancy() == 0; }

  private:
    /** One in-flight word and its intra-segment alignment state. */
    struct Flit
    {
        std::uint64_t value = 0;
        int misalign = 0;      //!< accumulated domain displacement
        bool abandoned = false; //!< recovery given up; data corrupt
    };

    /** Run one realignment episode on @p flit (budget-bounded). */
    static void realign(Flit &flit, FaultInjector &faults);

    /** The value a misaligned port sense returns. */
    static std::uint64_t corrupted(const Flit &flit);

    bool
    occupied(std::size_t i) const
    {
        return (occ_[i / 64] >> (i % 64)) & 1u;
    }

    void
    setOccupied(std::size_t i, bool v)
    {
        const std::uint64_t mask = std::uint64_t(1) << (i % 64);
        if (v)
            occ_[i / 64] |= mask;
        else
            occ_[i / 64] &= ~mask;
    }

    /**
     * Payload of the @p k-th flit in descending-position order
     * (k = 0 is the oldest word, sitting at the highest occupied
     * segment).
     */
    Flit &
    flitAt(unsigned k)
    {
        std::size_t idx = head_ + k;
        if (idx >= flits_.size())
            idx -= flits_.size();
        return flits_[idx];
    }

    /** Remove and return the oldest flit from the FIFO ring. */
    Flit
    popHead()
    {
        Flit f = flits_[head_];
        head_ = head_ + 1 == flits_.size() ? 0 : head_ + 1;
        count_--;
        return f;
    }

    unsigned segments_;
    /**
     * Packed occupancy bitmask: bit s of word s/64 = segment s
     * holds a data wave.
     */
    std::vector<std::uint64_t> occ_;
    /**
     * Payloads as a ring-buffer FIFO. Flits never overtake each
     * other on the lane, so the occupied positions in descending
     * order are exactly the flits in injection order starting at
     * @p head_ — a pulse only rewrites the occupancy mask and never
     * touches the payload store.
     */
    std::vector<Flit> flits_;
    std::size_t head_ = 0;   //!< ring index of the oldest flit
    unsigned count_ = 0;     //!< flits in flight (== occupancy)
};

/** A full RM bus: several parallel lanes with shared clocking. */
class RmBus
{
  public:
    RmBus(unsigned lanes, unsigned segments);

    unsigned lanes() const { return unsigned(lanes_.size()); }
    unsigned segments() const { return segments_; }

    RmBusLane &lane(unsigned i);

    /** True if every lane is empty. */
    bool drained() const;

    /** Step every lane one cycle; returns total segment moves. */
    unsigned step(FaultInjector *faults = nullptr,
                  unsigned segment_domains = 0);

    /**
     * Functional end-to-end transfer: push all of @p words through
     * the bus (round-robin over lanes, one wave of lanes() words per
     * injection slot), collecting them at the far end in injection
     * order.
     *
     * On a drained bus with no fault sampling and the strict mode
     * off, the transfer takes its closed form: with w =
     * ceil(n / lanes) waves, (segments - 1) + 2 (w - 1) cycles, or w
     * on a 2-segment bus, and 0 for no words — exactly the stepped
     * sweep's order and count, without stepping.
     *
     * With a fault injector, every segment pulse is fallible
     * (@p segment_domains domain steps each), in-flight guard checks
     * run after every bus cycle, words leave through the exact
     * egress checkpoint, and each compensating realignment shift
     * costs one extra bus cycle (charged into @p cycles_taken).
     *
     * A reused @p arrived with capacity performs no heap allocation.
     * @param[out] arrived the words in arrival order (cleared first).
     * @param[out] cycles_taken number of bus cycles consumed.
     */
    void transferAllInto(std::span<const std::uint64_t> words,
                         std::vector<std::uint64_t> &arrived,
                         Cycle &cycles_taken,
                         FaultInjector *faults = nullptr,
                         unsigned segment_domains = 0);

  private:
    unsigned segments_;
    std::vector<RmBusLane> lanes_;
};

/**
 * Closed-form timing/energy of the segmented bus.
 *
 * Element packing: one 8-bit element occupies one domain position of
 * a group of 8 lanes (bit-parallel across lanes, elements serial
 * along the wire), matching the mat layout. A segment of one lane
 * group therefore carries busSegmentSize elements, and the whole bus
 * moves (lanes/8) groups in parallel.
 */
class RmBusTiming
{
  public:
    explicit RmBusTiming(const RmParams &params) : params_(params) {}

    /** Segments along the bus = physical length / segment size. */
    unsigned
    segmentCount() const
    {
        return params_.busLengthDomains / params_.busSegmentSize;
    }

    /** Parallel lane groups (8 bit-lanes per element). */
    unsigned
    laneGroups() const
    {
        return params_.busLanes / 8;
    }

    /** Elements carried by one wave of data segments. */
    std::uint64_t
    elementsPerWave() const
    {
        return std::uint64_t(laneGroups()) * params_.busSegmentSize;
    }

    /**
     * Cycles to move @p elements elements across the bus with
     * pipelined injection: traversal (segmentCount) for the first
     * wave, then a new wave every 2 cycles (each data segment needs
     * a trailing empty segment).
     *
     * The traversal counts segmentCount hops: the shift that moves
     * the wave from the source port into the entry segment, then
     * segmentCount - 1 segment-to-segment pulses. The functional
     * RmBus places an injected word in the entry segment without a
     * pulse, so for a wave of the same size its transfer takes one
     * cycle less (segments - 1 + 2 (w - 1)); recordTransferEnergy
     * charges the entry hop as well.
     */
    Cycle
    transferCycles(std::uint64_t elements) const
    {
        if (elements == 0)
            return 0;
        std::uint64_t waves =
            (elements + elementsPerWave() - 1) / elementsPerWave();
        return segmentCount() + 2 * (waves - 1);
    }

    /** Data segments needed to carry @p elements elements. */
    std::uint64_t
    dataSegments(std::uint64_t elements) const
    {
        return (elements + params_.busSegmentSize - 1) /
               params_.busSegmentSize;
    }

    /**
     * Record the shift energy of moving @p elements elements end to
     * end: every occupied data segment is pulsed once per segment
     * hop, on each of the segmentCount hops.
     */
    void
    recordTransferEnergy(RmEnergyModel &energy,
                         std::uint64_t elements) const
    {
        energy.busShift(params_.busSegmentSize,
                        dataSegments(elements) * segmentCount());
    }

    /** Segment pulses needed to move @p elements end to end. */
    std::uint64_t
    pulsesFor(std::uint64_t elements) const
    {
        return dataSegments(elements) * segmentCount();
    }

    /**
     * Expected compensating realignment shifts for moving
     * @p elements elements under the configured shiftFaultPStep
     * (closed form — the timed path stays deterministic and never
     * samples). Each segment pulse faults with the per-pulse
     * probability; a detected fault (|error| = 1) needs one
     * compensating single-step shift, itself fallible, so the
     * expected episode length is 1 / (1 - p_1) shifts.
     */
    double
    expectedCorrectionShifts(std::uint64_t elements) const
    {
        ShiftFaultModel model(params_.shiftFaultPStep);
        const double p_pulse =
            model.pulseFaultProbability(params_.busSegmentSize);
        const double p1 = model.pulseFaultProbability(1);
        return double(pulsesFor(elements)) * p_pulse / (1.0 - p1);
    }

    /**
     * Cycles of reliability overhead exposed on the stream: every
     * compensating shift stalls its lane couple one bus cycle.
     * Zero when fault injection is off.
     */
    Cycle
    reliabilityCycles(std::uint64_t elements) const
    {
        if (params_.shiftFaultPStep <= 0.0 || elements == 0)
            return 0;
        return Cycle(std::ceil(expectedCorrectionShifts(elements)));
    }

  private:
    const RmParams &params_;
};

} // namespace streampim

#endif // STREAMPIM_BUS_RM_BUS_HH_
