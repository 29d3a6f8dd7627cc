#include "rm/energy.hh"

namespace streampim
{

const char *
energyOpName(EnergyOp op)
{
    switch (op) {
      case EnergyOp::RmRead: return "rm_read";
      case EnergyOp::RmWrite: return "rm_write";
      case EnergyOp::RmShift: return "rm_shift";
      case EnergyOp::BusShift: return "bus_shift";
      case EnergyOp::PimAdd: return "pim_add";
      case EnergyOp::PimMul: return "pim_mul";
      case EnergyOp::DramAccess: return "dram_access";
      case EnergyOp::DramRefresh: return "dram_refresh";
      case EnergyOp::BusElectrical: return "bus_electrical";
      case EnergyOp::HostCompute: return "host_compute";
      case EnergyOp::GuardSense: return "guard_sense";
      case EnergyOp::Redeposit: return "redeposit";
      case EnergyOp::Recovery: return "recovery";
      case EnergyOp::NumOps: break;
    }
    return "unknown";
}

} // namespace streampim
