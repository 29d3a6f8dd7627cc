/**
 * @file
 * Physical address decomposition for the RM device.
 *
 * Layout (matching Fig. 2/7): the byte address splits top-down into
 * bank, subarray, mat and byte-in-mat. Inside a mat, data is laid
 * out in "word rows": with 512 save tracks and 8-bit elements, 64
 * consecutive bytes sit side by side across the tracks at the same
 * domain position; the next 64 bytes use the next domain position.
 * An element's 8 bits therefore occupy one domain position of 8
 * adjacent tracks, and a whole vector stored contiguously lies along
 * the track direction — which is what lets StreamPIM stream it out
 * with shift operations.
 */

#ifndef STREAMPIM_MEM_ADDRESS_HH_
#define STREAMPIM_MEM_ADDRESS_HH_

#include <cstdint>

#include "common/log.hh"
#include "common/types.hh"
#include "rm/params.hh"

namespace streampim
{

/** Fully decoded location of one byte in the RM device. */
struct RmLocation
{
    unsigned bank;
    unsigned subarray;   //!< within the bank
    unsigned mat;        //!< within the subarray
    unsigned trackGroup; //!< first of the 8 tracks holding the byte
    unsigned domain;     //!< domain position along those tracks
};

/** Address mapping helpers bound to one device geometry. */
class AddressMap
{
  public:
    explicit AddressMap(const RmParams &params) : params_(params) {}

    /** Bytes side by side in one word row of a mat. */
    unsigned
    bytesPerRow() const
    {
        return params_.saveTracksPerMat / 8;
    }

    /** Decode a byte address. */
    RmLocation
    decode(Addr addr) const
    {
        SPIM_ASSERT(addr < params_.totalBytes(),
                    "address ", addr, " beyond device capacity");
        RmLocation loc;
        loc.bank = unsigned(addr / params_.bytesPerBank());
        Addr r = addr % params_.bytesPerBank();
        loc.subarray = unsigned(r / params_.bytesPerSubarray());
        r %= params_.bytesPerSubarray();
        loc.mat = unsigned(r / params_.matBytes);
        r %= params_.matBytes;
        loc.domain = unsigned(r / bytesPerRow());
        loc.trackGroup = unsigned(r % bytesPerRow()) * 8;
        return loc;
    }

  private:
    const RmParams &params_;
};

} // namespace streampim

#endif // STREAMPIM_MEM_ADDRESS_HH_
