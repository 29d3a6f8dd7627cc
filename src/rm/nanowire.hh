/**
 * @file
 * Functional model of a domain-wall (racetrack) nanowire.
 *
 * A nanowire stores one bit per magnetic domain. Domains can only be
 * accessed through access ports; a shift operation moves the whole
 * domain train left or right by whole positions. Extra domains are
 * reserved at both ends so data shifted past the last port is not
 * lost (Section II-A); the reserved count equals the span a domain
 * may legally travel, i.e. the distance between adjacent ports.
 *
 * This model is used directly by the mat model and by unit tests; the
 * timed simulator uses the latency/energy formulas of RmParams, which
 * tests validate against step counts observed here.
 */

#ifndef STREAMPIM_RM_NANOWIRE_HH_
#define STREAMPIM_RM_NANOWIRE_HH_

#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "common/log.hh"
#include "rm/fault.hh"

namespace streampim
{

class FaultInjector;

/** Shift direction along a nanowire. */
enum class ShiftDir
{
    TowardLower,  //!< data index i moves to i-1
    TowardHigher, //!< data index i moves to i+1
};

/** What one fallible shift pulse actually did to the train. */
struct ShiftAttempt
{
    ShiftOutcome outcome = ShiftOutcome::Exact;
    int applied = 0;      //!< signed positions the train moved
    bool clamped = false; //!< faulty travel pinned at the wire end
    /**
     * The *intended* target was already outside the reserved region
     * — the caller's view of the train had drifted under injection.
     * The drive interlock pinned travel at the wire end instead of
     * panicking and escalated the scoped VPC to Failed (see
     * FaultInjector::noteOvertravel); without a live injector the
     * same intent is a caller bug and still panics.
     */
    bool overtravel = false;
};

/** A single racetrack: data domains + reserved overhead domains. */
class Nanowire
{
  public:
    /**
     * @param data_domains number of addressable (regular) domains
     * @param domains_per_port domains sharing one access port
     */
    Nanowire(unsigned data_domains, unsigned domains_per_port);

    unsigned domainsPerPort() const { return domainsPerPort_; }
    unsigned ports() const { return dataDomains_ / domainsPerPort_; }

    /** Current shift offset relative to the rest position. */
    int offset() const { return offset_; }

    /**
     * Shift the whole domain train by @p steps positions.
     * Fatal travel beyond the reserved region panics: real hardware
     * would destroy data (over-shift fault).
     */
    void shift(ShiftDir dir, unsigned steps = 1);

    /**
     * Fallible shift: the pulse is sampled from @p faults and may
     * over- or under-shift by one position (Sec. III-D). The
     * *intended* target must lie inside the reserved region (a
     * violation is a caller bug and panics, as shift() does); a
     * faulty one-position overtravel beyond the region is pinned at
     * the wire end instead of destroying data, which the reserved
     * overhead domains exist to absorb. A null or disabled injector
     * degrades to an exact shift.
     */
    ShiftAttempt tryShift(ShiftDir dir, unsigned steps,
                          FaultInjector *faults);

    /** Shift so that logical domain @p index aligns with its port. */
    unsigned alignToPort(unsigned index);

    /**
     * Net effect of alignToPort(first), alignToPort(first + 1), …,
     * alignToPort(first + count - 1), in closed form: within a port
     * group each next domain is one step further, and crossing into
     * the next group swings the train back by P - 1 steps (P =
     * domainsPerPort), so the sweep costs |stepsToAlign(first)| +
     * (count - 1) + (last/P - first/P)·(P - 2) steps and leaves the
     * train aligned to the last domain.
     * @return the shift steps taken (0 when @p count is 0).
     */
    std::uint64_t alignSweep(unsigned first, unsigned count);

    /**
     * Read the bit of logical domain @p index. The domain must be
     * aligned with its access port (call alignToPort first).
     */
    bool read(unsigned index) const;

    /** Write the bit of logical domain @p index (must be aligned). */
    void write(unsigned index, bool value);

    /** True if logical domain @p index currently sits under a port. */
    bool alignedAtPort(unsigned index) const;

    /**
     * Sense whatever domain physically sits under @p index's access
     * port right now, without requiring alignment. Misaligned by m
     * positions, the port sees logical domain index - m; a reserved
     * overhead domain senses as 0. Models the corrupted access a
     * controller commits when realignment failed (FaultStatus::
     * Failed) — the infallible read()/write() still assert alignment.
     * @{
     */
    bool senseAtPortOf(unsigned index) const;
    void writeAtPortOf(unsigned index, bool value);
    /** @} */

    /** Shift distance needed to align @p index with its port. */
    int stepsToAlign(unsigned index) const;

    /** Bulk helpers used by tests and the mat model. @{ */
    BitVec readAll() const;
    void writeAll(const BitVec &bits);
    /** @} */

    /**
     * Direct domain access from the wire end, used by the shift-based
     * bus paths (deposit/eject): the domain is reached by shift
     * pulses, not through an access port, so no alignment is
     * involved. The caller accounts the shift steps; these accessors
     * only touch the backing store. @{
     */
    bool
    peekDomain(unsigned index) const
    {
        SPIM_ASSERT(index < dataDomains_, "domain index out of range");
        return bits_.get(index);
    }

    void
    pokeDomain(unsigned index, bool value)
    {
        SPIM_ASSERT(index < dataDomains_, "domain index out of range");
        bits_.set(index, value);
    }

    /** Word-wide forms: @p count (<= 64) domains from @p first,
     * packed LSB first. */
    std::uint64_t
    peekDomains(unsigned first, unsigned count) const
    {
        return bits_.bits(first, count);
    }

    void
    pokeDomains(unsigned first, unsigned count, std::uint64_t value)
    {
        bits_.setBits(first, count, value);
    }
    /** @} */

  private:
    /** Physical position of logical domain @p index. */
    int physicalPos(unsigned index) const;

    unsigned dataDomains_;
    unsigned domainsPerPort_;
    unsigned reserved_; //!< overhead domains on each side

    /**
     * Backing store indexed by logical domain, packed 64 domains per
     * word. Shifting changes offset_ rather than moving storage; the
     * physical position of logical domain i is i + offset_ +
     * reserved_.
     */
    BitVec bits_;
    int offset_ = 0;
};

} // namespace streampim

#endif // STREAMPIM_RM_NANOWIRE_HH_
