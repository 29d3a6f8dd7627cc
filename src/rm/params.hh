/**
 * @file
 * Racetrack-memory device parameters.
 *
 * Default values reproduce Table III of the StreamPIM paper:
 *
 *   Domain-wall memory: bank-subarray-mat 32-64-16; 256 KiB/mat;
 *   core frequency 100 MHz; in-processor duplicator count 2;
 *   save/transfer tracks 512/512 per mat;
 *   latency  (ns): read 3.91, write 10.27, shift 2.13;
 *   energy   (pJ): read 3.80, write 11.79, shift 3.26;
 *   PIM energy (pJ): add 0.03, mul 0.18; fabrication process 32 nm.
 *
 * Derived quantities (documented where computed):
 *   - 8 GiB total = 32 banks x 64 subarrays x 16 mats x 256 KiB.
 *   - 4096 domains per save track (256 KiB x 8 / 512 tracks).
 *   - 512 PIM subarrays = 8 PIM banks x 64 subarrays.
 */

#ifndef STREAMPIM_RM_PARAMS_HH_
#define STREAMPIM_RM_PARAMS_HH_

#include <cstdint>

#include "common/log.hh"
#include "common/types.hh"

namespace streampim
{

/** All knobs of the racetrack memory device model. */
struct RmParams
{
    // --- Organization (Table III: bank-subarray-mat 32-64-16) ---
    unsigned banks = 32;
    unsigned pimBanks = 8;            //!< banks with RM processors
    unsigned subarraysPerBank = 64;
    unsigned matsPerSubarray = 16;
    std::uint64_t matBytes = 256 * 1024;

    /** Mats per subarray equipped with transfer tracks (Sec. V-G). */
    unsigned transferMatsPerSubarray = 2;

    // --- Track geometry ---
    unsigned saveTracksPerMat = 512;
    unsigned transferTracksPerMat = 512;
    /** Domains sharing one access port (RTSim-style default). */
    unsigned domainsPerPort = 64;

    // --- Clocking ---
    double coreFreqHz = 100e6;        //!< 100 MHz PIM core clock

    // --- Device latencies, per operation (Table III) ---
    NanoSec readNs = 3.91;            //!< one access-port read
    NanoSec writeNs = 10.27;          //!< one access-port write
    NanoSec shiftNs = 2.13;           //!< one single-domain shift step

    // --- Device energies, per operation (Table III) ---
    PicoJoule readPj = 3.80;
    PicoJoule writePj = 11.79;
    PicoJoule shiftPj = 3.26;

    // --- Domain-wall processor energies (Table III / Sec. V-F) ---
    PicoJoule pimAddPj = 0.03;        //!< full 8-bit addition
    PicoJoule pimMulPj = 0.18;        //!< full 8-bit multiplication

    // --- RM processor structure ---
    unsigned duplicators = 2;         //!< Table III duplicator count

    // --- RM bus (Section III-D) ---
    /** Domains per bus segment; Table V sweeps 64..1024. */
    unsigned busSegmentSize = 1024;
    /** Parallel bus nanowire lanes per subarray (one 8-bit word/lane). */
    unsigned busLanes = 64;
    /** Physical bus length in domains from mat edge to processor. */
    unsigned busLengthDomains = 4096;

    // --- Shift-fault tolerance (Sec. III-D bound + Sec. VI) ---
    /** Per-domain-step shift-fault probability (0 = fault free). */
    double shiftFaultPStep = 0.0;

    // --- Save-track write endurance (rm/endurance.hh) ---
    /** Wear-independent nucleation failure floor (0 = fault free). */
    double writeFaultP0 = 0.0;
    /** Weibull characteristic life in writes per save track. */
    double writeEndurance = 1e6;
    /** Weibull shape parameter (>= 1: wear-out regime). */
    double weibullShape = 2.0;
    /** Spare save tracks per mat for retiring worn tracks. */
    unsigned spareTracksPerMat = 8;

    // --- Derived quantities ---
    std::uint64_t
    bytesPerSubarray() const
    {
        return std::uint64_t(matsPerSubarray) * matBytes;
    }

    std::uint64_t
    bytesPerBank() const
    {
        return std::uint64_t(subarraysPerBank) * bytesPerSubarray();
    }

    std::uint64_t
    totalBytes() const
    {
        return std::uint64_t(banks) * bytesPerBank();
    }

    unsigned
    pimSubarrays() const
    {
        return pimBanks * subarraysPerBank;
    }

    unsigned
    totalSubarrays() const
    {
        return banks * subarraysPerBank;
    }

    /** Domains on one save track: matBytes*8 / saveTracksPerMat. */
    unsigned
    domainsPerTrack() const
    {
        return unsigned(matBytes * 8 / saveTracksPerMat);
    }

    /** Access ports per save track. */
    unsigned
    portsPerTrack() const
    {
        return domainsPerTrack() / domainsPerPort;
    }

    Tick readTicks() const { return nsToTicks(readNs); }
    Tick writeTicks() const { return nsToTicks(writeNs); }
    /** Latency of shifting by @p steps domain positions. */
    Tick
    shiftTicks(unsigned steps) const
    {
        return nsToTicks(shiftNs) * steps;
    }

    /** Sanity-check internal consistency; fatal() on bad configs. */
    void
    validate() const
    {
        if (pimBanks > banks)
            SPIM_FATAL("pimBanks (", pimBanks, ") exceeds banks (",
                       banks, ")");
        if (matBytes * 8 % saveTracksPerMat != 0)
            SPIM_FATAL("mat capacity must divide evenly into tracks");
        if (domainsPerTrack() % domainsPerPort != 0)
            SPIM_FATAL("domainsPerPort must divide track length");
        if (busSegmentSize == 0 || busLengthDomains % busSegmentSize != 0)
            SPIM_FATAL("bus length must be a multiple of segment size");
        if (transferMatsPerSubarray > matsPerSubarray)
            SPIM_FATAL("more transfer mats than mats in a subarray");
        if (duplicators == 0)
            SPIM_FATAL("processor needs at least one duplicator");
        if (shiftFaultPStep < 0.0 || shiftFaultPStep >= 1.0)
            SPIM_FATAL("shiftFaultPStep out of [0, 1)");
        if (writeFaultP0 < 0.0 || writeFaultP0 >= 1.0)
            SPIM_FATAL("writeFaultP0 out of [0, 1)");
        if (writeEndurance <= 0.0)
            SPIM_FATAL("writeEndurance must be > 0");
        if (weibullShape < 1.0)
            SPIM_FATAL("weibullShape must be >= 1");
    }
};

} // namespace streampim

#endif // STREAMPIM_RM_PARAMS_HH_
