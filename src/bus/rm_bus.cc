#include "bus/rm_bus.hh"

#include <cstdlib>

#include "common/log.hh"
#include "dwlogic/mode.hh"
#include "rm/fault_injector.hh"

namespace streampim
{

RmBusLane::RmBusLane(unsigned segments)
    : segments_(segments), occ_((segments + 63) / 64, 0),
      flits_(segments)
{
    SPIM_ASSERT(segments >= 2,
                "a lane needs at least a data and an empty segment");
}

bool
RmBusLane::inject(std::uint64_t word)
{
    // A data segment must always be followed by an empty segment in
    // the transfer direction (Fig. 12): injection requires both the
    // entry segment and its successor to be empty, which limits
    // injection to every other cycle in steady state.
    if (occ_[0] & 3)
        return false;
    setOccupied(0, true);
    // The new flit sits at the lowest position = newest = FIFO tail.
    flitAt(count_) = Flit{word};
    count_++;
    return true;
}

unsigned
RmBusLane::step(FaultInjector *faults, unsigned segment_domains)
{
    // Per-segment sweep from the output end: a data segment advances
    // only into an empty segment (its successor is either empty
    // already or vacated earlier in the same sweep). The k-th
    // occupied position from the top is the k-th-oldest flit; a move
    // advances the position without reordering the FIFO. Moves are
    // fault-sampled in sweep order; every fault-campaign golden pins
    // that RNG draw order.
    const bool fallible = faults && faults->enabled();
    unsigned moved = 0;
    unsigned k = occupied(segments_ - 1) ? 1 : 0;
    for (std::size_t i = segments_ - 1; i-- > 0;) {
        if (!occupied(i))
            continue;
        Flit &f = flitAt(k);
        k++;
        if (occupied(i + 1))
            continue;
        setOccupied(i + 1, true);
        setOccupied(i, false);
        moved++;
        if (!fallible)
            continue;
        // One pulse of segment_domains domain steps moved this
        // couple; a fault displaces the word by one domain within
        // its segment (Sec. III-D per-pulse bound).
        switch (faults->samplePulse(segment_domains)) {
          case ShiftOutcome::Exact:
            break;
          case ShiftOutcome::OverShift:
            f.misalign += 1;
            break;
          case ShiftOutcome::UnderShift:
            f.misalign -= 1;
            break;
        }
    }
    return moved;
}

void
RmBusLane::realign(Flit &flit, FaultInjector &faults)
{
    flit.misalign = realignEpisode(faults, flit.misalign);
    if (flit.misalign != 0)
        flit.abandoned = true;
}

void
RmBusLane::guardRealign(FaultInjector &faults)
{
    if (!faults.enabled())
        return;
    // Visit occupied segments in ascending index order (the order
    // the bit-serial model sensed them) so the coverage-sampling
    // sequence is unchanged. The lowest occupied position holds the
    // newest flit (FIFO index count_ - 1).
    unsigned k = count_;
    for (std::size_t w = 0; w < occ_.size(); ++w) {
        for (std::uint64_t m = occ_[w]; m; m &= m - 1) {
            k--;
            Flit &f = flitAt(k);
            if (f.abandoned)
                continue;
            // One guard sense per occupied segment per pulse;
            // detection of a misaligned pattern succeeds only with
            // the coverage.
            const bool detected = faults.inFlightCheck();
            if (f.misalign != 0 && detected)
                realign(f, faults);
        }
    }
}

std::uint64_t
RmBusLane::corrupted(const Flit &flit)
{
    // The egress port senses domains displaced by the misalignment:
    // the word's bit-serial stream arrives shifted, with the
    // positions that ran off the segment edge reading as 0.
    if (flit.misalign > 0)
        return flit.value << flit.misalign;
    return flit.value >> -flit.misalign;
}

std::optional<std::uint64_t>
RmBusLane::takeOutput()
{
    if (!occupied(segments_ - 1))
        return std::nullopt;
    setOccupied(segments_ - 1, false);
    return popHead().value;
}

std::optional<std::uint64_t>
RmBusLane::takeOutputChecked(FaultInjector *faults)
{
    if (!occupied(segments_ - 1))
        return std::nullopt;
    setOccupied(segments_ - 1, false);
    Flit f = popHead();
    if (faults && faults->enabled()) {
        // Egress checkpoint: the word is sensed at a port, so a
        // misaligned guard pattern is directly visible — this check
        // is exact, unlike the coverage-limited in-flight senses.
        faults->noteCheckpointCheck();
        if (f.misalign != 0 && !f.abandoned)
            realign(f, *faults);
    }
    if (f.misalign != 0)
        return corrupted(f);
    return f.value;
}

unsigned
RmBusLane::occupancy() const
{
    return count_;
}

RmBus::RmBus(unsigned lanes, unsigned segments) : segments_(segments)
{
    SPIM_ASSERT(lanes > 0, "bus needs at least one lane");
    lanes_.reserve(lanes);
    for (unsigned i = 0; i < lanes; ++i)
        lanes_.emplace_back(segments);
}

RmBusLane &
RmBus::lane(unsigned i)
{
    SPIM_ASSERT(i < lanes_.size(), "lane index out of range");
    return lanes_[i];
}

bool
RmBus::drained() const
{
    for (const auto &l : lanes_)
        if (!l.drained())
            return false;
    return true;
}

unsigned
RmBus::step(FaultInjector *faults, unsigned segment_domains)
{
    unsigned moved = 0;
    for (auto &l : lanes_)
        moved += l.step(faults, segment_domains);
    return moved;
}

void
RmBus::transferAllInto(std::span<const std::uint64_t> words,
                       std::vector<std::uint64_t> &arrived,
                       Cycle &cycles_taken, FaultInjector *faults,
                       unsigned segment_domains)
{
    const bool fallible = faults && faults->enabled();
    if (!fallible && !strictGates() && drained()) {
        // Fault-free pipeline in closed form (Fig. 12): every couple
        // shifts one segment per cycle and words never overtake, so
        // wave k (one word per lane, injected in lane order) enters
        // in cycle 2k + 1 and leaves in cycle 2k + S - 1, after S - 1
        // pulses. A 2-segment
        // lane empties its output in the cycle it fills, so it takes
        // a wave every cycle instead of every other one.
        arrived.assign(words.begin(), words.end());
        const Cycle waves = (words.size() + lanes_.size() - 1) /
                            lanes_.size();
        cycles_taken = waves == 0      ? 0
                       : segments_ == 2 ? waves
                                        : (segments_ - 1) +
                                              2 * (waves - 1);
        return;
    }
    const std::uint64_t shifts_before =
        fallible ? faults->stats().correctionShifts : 0;

    arrived.clear();
    arrived.reserve(words.size());
    std::size_t next = 0;
    cycles_taken = 0;

    while (arrived.size() < words.size()) {
        // Inject as many pending words as lanes accept this cycle.
        for (auto &l : lanes_) {
            if (next >= words.size())
                break;
            if (l.inject(words[next]))
                next++;
        }
        step(faults, segment_domains);
        cycles_taken++;
        if (fallible)
            for (auto &l : lanes_)
                l.guardRealign(*faults);
        // Collect arrivals.
        for (auto &l : lanes_) {
            if (auto w = fallible ? l.takeOutputChecked(faults)
                                  : l.takeOutput())
                arrived.push_back(*w);
        }
        SPIM_ASSERT(cycles_taken < 1'000'000'000ULL,
                    "bus transfer failed to make progress");
    }
    // Every compensating realignment shift serializes one extra bus
    // cycle on the affected lane couple.
    if (fallible)
        cycles_taken += Cycle(faults->stats().correctionShifts -
                              shifts_before);
}

} // namespace streampim
