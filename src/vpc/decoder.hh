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
 *
 * A bank command in turn decodes into the operation sequence of
 * Sec. IV-B: transfers mats -> processor, the scalar operation
 * stream, and the result transfer back (Fig. 13 steps 1-5).
 */

#ifndef STREAMPIM_VPC_DECODER_HH_
#define STREAMPIM_VPC_DECODER_HH_

#include <vector>

#include "mem/address.hh"
#include "rm/params.hh"
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

/** Subarray-level micro-operations a bank command expands into. */
enum class SubarrayOpKind
{
    StreamIn,   //!< mats -> RM bus -> processor (shift domain)
    Compute,    //!< duplicator/multiplier/adder-tree/circle-adder
    StreamOut,  //!< processor -> RM bus -> destination mat
    PortRead,   //!< access-port read (conversion; inter-subarray)
    PortWrite,  //!< access-port write (conversion; inter-subarray)
};

/** One micro-operation with its element count. */
struct SubarrayOp
{
    SubarrayOpKind kind;
    std::uint32_t elements = 0;
    VpcKind op = VpcKind::Tran; //!< for Compute
};

/** Decodes VPCs per the Fig. 14 control flow. */
class VpcDecoder
{
  public:
    VpcDecoder(const RmParams &params, const AddressMap &map)
        : params_(params), map_(map)
    {}

    /**
     * Decode a VPC into bank commands. The executing bank is the
     * bank holding src1 (dot products run where the matrix rows
     * live, Fig. 15). Fills @p cmds (cleared first; reuses
     * capacity).
     */
    void decodeInto(const Vpc &vpc,
                    std::vector<BankCommand> &cmds) const;

    /**
     * Expand an ExecuteInBank command into the subarray operation
     * sequence of Fig. 13.
     */
    std::vector<SubarrayOp> expand(const BankCommand &cmd) const;

    /** The bank a VPC executes in. */
    unsigned executingBank(const Vpc &vpc) const;

  private:
    const RmParams &params_;
    const AddressMap &map_;
};

} // namespace streampim

#endif // STREAMPIM_VPC_DECODER_HH_
