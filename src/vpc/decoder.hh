/**
 * @file
 * VPC decoding and distribution (Sec. IV-B, Fig. 14).
 *
 * A VPC arriving from the host decodes into one or more bank
 * commands; bank controllers decode those into subarray operations
 * executed by the RM bus and processor. The decode rules:
 *
 *  - If both vector operands and the result lie in a single bank,
 *    the VPC is sent directly to that bank (one ExecuteInBank
 *    command).
 *  - Otherwise read/write commands are generated to collect the
 *    operands into the executing bank and to store the result to
 *    its destination bank.
 */

#ifndef STREAMPIM_VPC_DECODER_HH_
#define STREAMPIM_VPC_DECODER_HH_

#include <vector>

#include "mem/address.hh"
#include "vpc/vpc.hh"

namespace streampim
{

/** Command types a decoded VPC issues to banks. */
enum class BankCommandKind
{
    ReadBlock,   //!< fetch operand bytes toward the executing bank
    WriteBlock,  //!< store result bytes to a destination bank
    ExecuteInBank, //!< run the arithmetic inside the target bank
};

/** One command addressed to a bank controller. */
struct BankCommand
{
    BankCommandKind kind;
    unsigned bank = 0;
    unsigned subarray = 0; //!< target subarray within the bank
    Addr addr = 0;
    std::uint32_t bytes = 0;
    VpcKind op = VpcKind::Tran; //!< for ExecuteInBank
};

/** Decodes VPCs per the Fig. 14 control flow. */
class VpcDecoder
{
  public:
    explicit VpcDecoder(const AddressMap &map) : map_(map) {}

    /**
     * Decode a VPC into bank commands. The executing bank is the
     * bank holding src1 (dot products run where the matrix rows
     * live, Fig. 15). Fills @p cmds (cleared first; reuses
     * capacity).
     */
    void decodeInto(const Vpc &vpc,
                    std::vector<BankCommand> &cmds) const;

  private:
    const AddressMap &map_;
};

} // namespace streampim

#endif // STREAMPIM_VPC_DECODER_HH_
