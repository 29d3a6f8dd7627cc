#include "rm/nanowire.hh"

#include <cmath>

#include "rm/fault_injector.hh"

namespace streampim
{

Nanowire::Nanowire(unsigned data_domains, unsigned domains_per_port)
    : dataDomains_(data_domains),
      domainsPerPort_(domains_per_port),
      reserved_(domains_per_port),
      bits_(data_domains)
{
    SPIM_ASSERT(data_domains > 0, "empty nanowire");
    SPIM_ASSERT(domains_per_port > 0, "domainsPerPort must be > 0");
    SPIM_ASSERT(data_domains % domains_per_port == 0,
                "track length ", data_domains,
                " not a multiple of port group ", domains_per_port);
}

void
Nanowire::shift(ShiftDir dir, unsigned steps)
{
    int delta = (dir == ShiftDir::TowardLower) ? -int(steps) : int(steps);
    int next = offset_ + delta;
    // The train may travel at most the reserved span in either
    // direction; beyond that, domains fall off the wire ends.
    if (next < -int(reserved_) || next > int(reserved_))
        SPIM_PANIC("over-shift: attempted offset ", next,
                   " (shift by ", delta, " from offset ", offset_,
                   ") outside reserved region [-", reserved_, ", ",
                   reserved_, "]");
    offset_ = next;
}

ShiftAttempt
Nanowire::tryShift(ShiftDir dir, unsigned steps, FaultInjector *faults)
{
    ShiftAttempt att;
    if (!faults || !faults->enabled() || steps == 0) {
        shift(dir, steps);
        att.applied =
            (dir == ShiftDir::TowardLower) ? -int(steps) : int(steps);
        return att;
    }

    const int delta =
        (dir == ShiftDir::TowardLower) ? -int(steps) : int(steps);
    const int intended = offset_ + delta;
    // An intended target outside the reserved region is a caller
    // bug on the infallible path (shift() panics above and in the
    // !faults branch). Under live injection, though, the caller's
    // view of the train position may itself have drifted because
    // of earlier sampled faults, so the same intent must never
    // abort the process: the drive interlock pins travel at the
    // wire end, flags the attempt, and escalates the scoped VPC to
    // Failed so the recovery ladder — not a panic — handles it.
    const bool overtravel =
        intended < -int(reserved_) || intended > int(reserved_);

    att.outcome = faults->samplePulse(steps);
    int error = 0;
    switch (att.outcome) {
      case ShiftOutcome::Exact:
        break;
      case ShiftOutcome::OverShift:
        error = delta >= 0 ? 1 : -1; // one position past the target
        break;
      case ShiftOutcome::UnderShift:
        error = delta >= 0 ? -1 : 1; // one position short
        break;
    }
    int next = intended + error;
    if (overtravel) {
        att.overtravel = true;
        faults->noteOvertravel();
    }
    // A faulty single-position overtravel is pinned at the physical
    // wire end: the reserved overhead domains absorb it, so data
    // survives (misaligned) instead of falling off.
    if (next < -int(reserved_)) {
        next = -int(reserved_);
        att.clamped = true;
        faults->noteClamped();
    } else if (next > int(reserved_)) {
        next = int(reserved_);
        att.clamped = true;
        faults->noteClamped();
    }
    att.applied = next - offset_;
    offset_ = next;
    return att;
}

int
Nanowire::physicalPos(unsigned index) const
{
    return int(index) + offset_ + int(reserved_);
}

int
Nanowire::stepsToAlign(unsigned index) const
{
    SPIM_ASSERT(index < dataDomains_, "domain index out of range");
    // Port p sits at the rest position of the first domain of its
    // group; aligning domain i requires offset = -(i mod group).
    int target = -int(index % domainsPerPort_);
    return target - offset_;
}

bool
Nanowire::alignedAtPort(unsigned index) const
{
    return stepsToAlign(index) == 0;
}

unsigned
Nanowire::alignToPort(unsigned index)
{
    int steps = stepsToAlign(index);
    if (steps < 0)
        shift(ShiftDir::TowardLower, unsigned(-steps));
    else if (steps > 0)
        shift(ShiftDir::TowardHigher, unsigned(steps));
    return unsigned(std::abs(steps));
}

std::uint64_t
Nanowire::alignSweep(unsigned first, unsigned count)
{
    if (count == 0)
        return 0;
    const unsigned last = first + count - 1;
    SPIM_ASSERT(last < dataDomains_, "domain index out of range");
    const std::int64_t p = domainsPerPort_;
    const std::int64_t crossings =
        std::int64_t(last / p) - std::int64_t(first / p);
    const std::int64_t steps = std::abs(stepsToAlign(first)) +
                               std::int64_t(count - 1) +
                               crossings * (p - 2);
    offset_ = -int(last % domainsPerPort_);
    return std::uint64_t(steps);
}

bool
Nanowire::senseAtPortOf(unsigned index) const
{
    SPIM_ASSERT(index < dataDomains_, "domain index out of range");
    // Misaligned by m = offset - target, the port of index's group
    // has logical domain index - m under it (see physicalPos).
    const int m = offset_ + int(index % domainsPerPort_);
    const int j = int(index) - m;
    if (j < 0 || j >= int(dataDomains_))
        return false; // reserved overhead domains hold no data
    return bits_.get(unsigned(j));
}

void
Nanowire::writeAtPortOf(unsigned index, bool value)
{
    SPIM_ASSERT(index < dataDomains_, "domain index out of range");
    const int m = offset_ + int(index % domainsPerPort_);
    const int j = int(index) - m;
    if (j < 0 || j >= int(dataDomains_))
        return; // the bit lands in a reserved domain and is lost
    bits_.set(unsigned(j), value);
}

bool
Nanowire::read(unsigned index) const
{
    SPIM_ASSERT(index < dataDomains_, "domain index out of range");
    SPIM_ASSERT(alignedAtPort(index),
                "read of domain ", index, " while misaligned (offset ",
                offset_, ")");
    return bits_.get(index);
}

void
Nanowire::write(unsigned index, bool value)
{
    SPIM_ASSERT(index < dataDomains_, "domain index out of range");
    SPIM_ASSERT(alignedAtPort(index),
                "write of domain ", index, " while misaligned (offset ",
                offset_, ")");
    bits_.set(index, value);
}

BitVec
Nanowire::readAll() const
{
    // The backing store is already a packed BitVec: a whole-track
    // read is an O(words) copy.
    return bits_;
}

void
Nanowire::writeAll(const BitVec &bits)
{
    SPIM_ASSERT(bits.size() == dataDomains_,
                "writeAll size mismatch: ", bits.size(), " vs ",
                dataDomains_);
    bits_ = bits;
}

} // namespace streampim
