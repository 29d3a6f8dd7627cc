#include "core/report.hh"

#include <map>
#include <sstream>

namespace streampim
{

std::string
summarizeReport(const ExecutionReport &report)
{
    std::ostringstream os;
    os << "time " << report.seconds() * 1e3 << " ms, energy "
       << report.joules() * 1e6 << " uJ, " << report.pimVpcs
       << " PIM VPCs + " << report.moveVpcs << " move VPCs in "
       << report.batches << " batches";
    const auto &b = report.breakdown;
    if (report.makespan > 0) {
        os << "; coverage: transfer "
           << 100.0 * double(b.exclusiveTransfer) /
                  double(report.makespan)
           << "%, process "
           << 100.0 * double(b.exclusiveProcess) /
                  double(report.makespan)
           << "%, overlapped "
           << 100.0 * double(b.overlapped) / double(report.makespan)
           << "%";
    }
    return os.str();
}

void
dumpReport(const ExecutionReport &report, std::ostream &os,
           const std::string &group_name)
{
    const auto &b = report.breakdown;
    std::map<std::string, std::uint64_t> counters = {
        {"makespan_ticks", report.makespan},
        {"pim_vpcs", report.pimVpcs},
        {"move_vpcs", report.moveVpcs},
        {"batches", report.batches},
        {"read_ticks", b.readTicks},
        {"write_ticks", b.writeTicks},
        {"shift_ticks", b.shiftTicks},
        {"process_ticks", b.processTicks},
        {"recovery_ticks", b.recoveryTicks},
        {"exclusive_transfer_ticks", b.exclusiveTransfer},
        {"exclusive_process_ticks", b.exclusiveProcess},
        {"overlapped_ticks", b.overlapped},
        {"idle_ticks", b.idle},
    };
    std::map<std::string, double> energy;
    for (unsigned i = 0;
         i < static_cast<unsigned>(EnergyOp::NumOps); ++i) {
        auto op = static_cast<EnergyOp>(i);
        if (report.energy.count(op) == 0)
            continue;
        counters[std::string("ops_") + energyOpName(op)] =
            report.energy.count(op);
        energy[std::string("energy_pj_") + energyOpName(op)] =
            report.energy.energyPj(op);
    }
    for (const auto &[key, value] : counters)
        os << group_name << '.' << key << ' ' << value << '\n';
    // One sample per category, so its sum and mean coincide.
    for (const auto &[key, pj] : energy) {
        os << group_name << '.' << key << ".sum " << pj << '\n';
        os << group_name << '.' << key << ".mean " << pj << '\n';
    }
}

std::string
summarizeBankHealth(std::span<const BankHealth> health)
{
    std::ostringstream os;
    for (const BankHealth &h : health) {
        if (h.bank > 0)
            os << '\n';
        os << "bank " << h.bank << ": spares "
           << h.remainingSpares() << "/" << h.sparesTotal
           << " remaining, max wear " << h.maxWear << ", "
           << h.deposits << " deposits, " << h.trackRemaps
           << " remaps, " << h.redeposits << " redeposits, "
           << h.writeFailures << " write failures";
    }
    return os.str();
}

} // namespace streampim
