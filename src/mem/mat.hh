/**
 * @file
 * Functional model of one RM mat with save and transfer tracks
 * (Sec. III-E, Fig. 7d).
 *
 * A mat is an array of racetracks. Save tracks hold data and carry
 * access ports for regular reads/writes. Transfer tracks have no
 * access ports; they connect to the save tracks through fan-out
 * nanowires, so data can be *copied* (not moved) onto them and then
 * shifted out to the RM bus — a non-destructive read without
 * electromagnetic conversion.
 *
 * Endurance: every deposit onto a save track nucleates a domain
 * wall, so the mat keeps a per-physical-track wear counter
 * (incremented on every commit, injector or not). With a
 * write-fault injector attached, each commit samples the Weibull
 * endurance model (rm/endurance.hh) at the track's current wear;
 * failed nucleations retry under the re-deposit budget, and a track
 * that exhausts its budget is retired onto one of the mat's spare
 * save tracks through the remap table. Logical track indices are
 * stable — only the mapping to physical nanowires changes.
 *
 * Two equivalent implementations move every byte range. The per-bit
 * path aligns, senses and writes one domain of one track at a time,
 * sampling the injector at every pulse and commit. When no fault
 * class is live, the word path moves the 8 tracks of a group as one
 * shared pulse (as the hardware does): each track takes one
 * closed-form alignment sweep over its domain run
 * (Nanowire::alignSweep), bytes are gathered/scattered 64 domains at
 * a time through an 8x8 bit transpose, and the activity and wear
 * counters advance by the same totals the per-bit loop would add.
 * STREAMPIM_STRICT_GATES (dwlogic/mode.hh) keeps the per-bit path
 * everywhere as the oracle for the word path.
 *
 * Only small geometries are instantiated functionally (tests and
 * examples); the timed simulation uses capacity/latency parameters
 * only.
 */

#ifndef STREAMPIM_MEM_MAT_HH_
#define STREAMPIM_MEM_MAT_HH_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "dwlogic/gate.hh"
#include "rm/energy.hh"
#include "rm/nanowire.hh"
#include "rm/params.hh"

namespace streampim
{

class FaultInjector;

/** Activity counters of one mat (feed stats and tests). */
struct MatActivity
{
    std::uint64_t portReads = 0;
    std::uint64_t portWrites = 0;
    std::uint64_t shiftSteps = 0;
    std::uint64_t fanOutCopies = 0; //!< save->transfer track copies
};

/** Wear/endurance summary of one mat. */
struct MatWear
{
    std::uint64_t deposits = 0;    //!< nucleations across all tracks
    std::uint64_t maxTrackWear = 0; //!< worst wear among live tracks
    std::uint64_t remaps = 0;      //!< tracks retired onto spares
    unsigned sparesUsed = 0;
    unsigned sparesTotal = 0;
};

/** One mat: @p tracks save tracks (+ optional transfer tracks). */
class Mat
{
  public:
    /**
     * @param tracks number of data save tracks (multiple of 8)
     * @param domains_per_track domains per track
     * @param domains_per_port domains sharing an access port
     * @param has_transfer_tracks whether this mat carries transfer
     *        tracks (only transferMatsPerSubarray mats do)
     * @param spare_tracks spare save tracks for retiring worn ones
     */
    Mat(unsigned tracks, unsigned domains_per_track,
        unsigned domains_per_port, bool has_transfer_tracks,
        unsigned spare_tracks = 0);

    /** Data (logical) save tracks; spares are not addressable. */
    unsigned tracks() const { return dataTracks_; }
    unsigned domainsPerTrack() const { return domainsPerTrack_; }
    bool hasTransferTracks() const { return !transferTracks_.empty(); }

    /** Capacity in bytes (8 tracks hold one byte per domain). */
    std::uint64_t
    capacityBytes() const
    {
        return std::uint64_t(tracks()) / 8 * domainsPerTrack_;
    }

    /**
     * Write @p data bytes starting at byte offset @p offset through
     * the access ports (electromagnetic conversion; slow path).
     */
    void writeBytes(std::uint64_t offset,
                    std::span<const std::uint8_t> data);

    /**
     * Read @p count bytes through the access ports (destructive of
     * nothing, but requires conversion; slow path), appending them
     * to @p out (allocation-free when @p out has capacity).
     */
    void readBytesInto(std::uint64_t offset, std::uint64_t count,
                       std::vector<std::uint8_t> &out);

    /**
     * Non-destructive read (Sec. III-E): copy @p count bytes at
     * @p offset onto the transfer tracks via the fan-out nanowires,
     * writing into @p out (out.size() bytes) the replica that would
     * shift out to the RM bus. The save tracks keep their data; no
     * port read/write happens.
     */
    void copyOutViaTransferTracksInto(std::uint64_t offset,
                                      std::span<std::uint8_t> out);

    /**
     * Destructive shift-out: move out.size() bytes from the save
     * tracks toward the RM bus into @p out; the source domains are
     * vacated (zeroed).
     */
    void shiftOutDestructiveInto(std::uint64_t offset,
                                 std::span<std::uint8_t> out);

    /**
     * Shift-in from the RM bus: deposit bytes into save tracks by
     * shift operations (no conversion).
     */
    void shiftInFromBus(std::uint64_t offset,
                        std::span<const std::uint8_t> data);

    const MatActivity &activity() const { return activity_; }

    /** Wear/endurance summary (deposits, remaps, spare usage). */
    MatWear wear() const;

    /**
     * Attach a shift-fault injector: every alignment shift and every
     * per-byte deposit/eject pulse becomes fallible. Port accesses
     * and deposit commits act as exact checkpoints (the guard
     * pattern is visible in the sensed data) with budget-bounded
     * fallible realignment; exhausted recovery escalates the current
     * VPC through the injector and the access proceeds misaligned
     * (visibly corrupt, never silent). When the injector carries
     * write faults (pWrite0 > 0), every deposit commit additionally
     * samples the wear-dependent nucleation model. Pass nullptr to
     * detach.
     */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }

  private:
    struct BytePos
    {
        unsigned trackGroup; //!< first of the 8 tracks
        unsigned domain;
    };

    BytePos locate(std::uint64_t offset) const;
    void checkRange(std::uint64_t offset, std::uint64_t count) const;

    /**
     * True when a byte range may move a word at a time: no fault
     * class is live (nothing is sampled) and the strict gate mode,
     * which keeps the per-bit mat as the oracle, is off.
     */
    bool wordPath() const;

    /**
     * Split the byte range [offset, offset + count) by track group:
     * byte offset + i sits at domain (offset + i) / bpr of group
     * (offset + i) % bpr (bpr = bytes per domain row), so each group
     * sees one contiguous domain run. Calls fn(pos, group, n, i) per
     * touched group, where pos locates the run's first byte (range
     * index i), group holds its 8 physical save tracks in bit order
     * and the run's n bytes sit at range indices i, i + bpr, ….
     */
    template <class Fn>
    void forEachGroupRun(std::uint64_t offset, std::uint64_t count,
                         Fn &&fn);

    /** Physical nanowire currently backing logical track @p l. */
    Nanowire &save(unsigned l) { return saveTracks_[trackMap_[l]]; }
    const Nanowire &
    save(unsigned l) const
    {
        return saveTracks_[trackMap_[l]];
    }

    /**
     * Align @p t's domain @p domain to its port, fallibly when an
     * injector is attached: the alignment shift is one fallible
     * pulse, the port check is an exact checkpoint, and detected
     * misalignment is realigned with fallible single-step shifts
     * under the retry budget.
     * @return true when the track ended up aligned; false when
     * recovery failed (the VPC is escalated to Failed and the caller
     * must fall back to the misaligned senseAtPortOf/writeAtPortOf).
     */
    bool alignFallible(Nanowire &t, unsigned domain);

    /**
     * Sample the displacement of one per-byte deposit/eject pulse
     * on the shift-based bus paths. The pre-commit port check is an
     * exact checkpoint; a detected displacement is realigned
     * (fallibly, under budget) before the domain commits.
     * @return residual displacement in domains (0 unless recovery
     * failed, in which case the VPC is already escalated).
     */
    int depositDisplacement();

    /**
     * Commit one domain-wall nucleation on logical track @p logical:
     * bumps the physical track's wear and, when write-fault
     * injection is active, samples the endurance model with bounded
     * re-deposit retries and — on repeated budget exhaustion —
     * spare-track remapping.
     * @param[out] remapped set when the episode retired the track
     *             onto a spare (the caller must re-fetch save() and
     *             re-align, since the spare sits at rest position).
     * @return true when the new domain committed; false when
     * nucleation ultimately failed — the domain keeps its previous
     * magnetization (visibly stale, never silently wrong: the VPC is
     * already escalated to Failed).
     */
    bool depositCommit(unsigned logical, bool &remapped);

    /** One bounded nucleation episode on physical track @p phys:
     * first pulse + up to redepositRetryBudget re-deposits.
     * @param[out] redeposits re-driven pulses the episode used. */
    bool nucleateBounded(unsigned phys, unsigned &redeposits);

    /**
     * Retire logical track @p logical onto the next free spare: the
     * controller migrates the worn track's contents (its own
     * ECC-protected maintenance path — not sampled — but the rewrite
     * wears the spare by one nucleation per domain) and updates the
     * remap table.
     * @return false when the spare pool is exhausted.
     */
    bool remapTrack(unsigned logical);

    unsigned dataTracks_;
    unsigned domainsPerTrack_;
    unsigned domainsPerPort_;
    /** Data tracks first, then spares; indexed via trackMap_. */
    std::vector<Nanowire> saveTracks_;
    std::vector<Nanowire> transferTracks_;
    /** Logical -> physical save-track mapping (remap table). */
    std::vector<unsigned> trackMap_;
    /** Per-physical-track nucleation count. */
    std::vector<std::uint64_t> wear_;
    /** Per-physical-track re-deposit budget exhaustions. */
    std::vector<unsigned> exhaustions_;
    unsigned spareNext_;     //!< next unused physical spare index
    std::uint64_t remaps_ = 0;
    MatActivity activity_;
    FaultInjector *faults_ = nullptr;
};

} // namespace streampim

#endif // STREAMPIM_MEM_MAT_HH_
