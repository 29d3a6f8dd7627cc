/**
 * @file
 * DDR4 DRAM model used by the CPU-DRAM baseline and the ELP2IM
 * process-in-DRAM substrate.
 *
 * Table III's host memory is "8 GiB; 2400 MHz IO bus speed", i.e.
 * DDR4-2400 with a 64-bit channel: 19.2 GB/s peak. Timing and energy
 * defaults follow common DDR4 datasheets (tRCD/tCL/tRP about 14 ns
 * each, tRC about 47 ns) and published per-access energy estimates
 * in the Ambit/ELP2IM literature.
 */

#ifndef STREAMPIM_MEM_DRAM_HH_
#define STREAMPIM_MEM_DRAM_HH_

#include <cstdint>

#include "common/types.hh"

namespace streampim
{

/** DDR4-2400 channel and bank-level parameters. */
struct DramParams
{
    double ioFreqMhz = 2400.0;   //!< MT/s of the IO bus
    unsigned channelBits = 64;   //!< channel width
    unsigned channels = 1;

    NanoSec tRcdNs = 14.16;      //!< activate -> column command
    NanoSec tClNs = 14.16;       //!< column command -> data
    NanoSec tRpNs = 14.16;       //!< precharge
    NanoSec tRcNs = 47.0;        //!< full row cycle (ELP2IM row op)

    std::uint64_t rowBytes = 8192;   //!< bytes per DRAM row
    unsigned banksPerChannel = 16;
    unsigned subarraysPerBank = 8;   //!< ELP2IM-visible subarrays

    /** Energy: pJ per byte transferred, device-level (the paper's
     * idealized accounting omits IO/PHY energy, which is what makes
     * CPU-DRAM energy "close to" CPU-RM in Fig. 18). */
    PicoJoule accessPjPerByte = 0.6;
    /** Energy: pJ per row activation. */
    PicoJoule activatePj = 2000.0;
    /** Energy: pJ per row op cycle (ELP2IM triple-row activate). */
    PicoJoule rowOpPj = 3000.0;
    /** Background refresh power in mW per rank. */
    double refreshMw = 1.5;

    /** Peak channel bandwidth in bytes per second. */
    double
    peakBandwidth() const
    {
        return ioFreqMhz * 1e6 * (channelBits / 8.0) * channels;
    }

    /** Random (row-miss) access latency. */
    NanoSec
    rowMissLatencyNs() const
    {
        return tRpNs + tRcdNs + tClNs;
    }
};

} // namespace streampim

#endif // STREAMPIM_MEM_DRAM_HH_
