#include "dwlogic/gate.hh"

#include "common/log.hh"

namespace streampim
{

bool
DwGate::truth(DwGateType type, bool a, bool b)
{
    switch (type) {
      case DwGateType::Nand:
        return !(a && b);
      case DwGateType::And:
        return a && b;
    }
    SPIM_PANIC("unreachable gate type");
}

bool
DwGate::eval(bool a, bool b)
{
    // Two input domains and the bias domain shift into the DMI
    // coupling region; the output domain shifts out: count one gate
    // op per DMI cell traversed plus the propagation step.
    switch (type_) {
      case DwGateType::Nand:
        counters_.gateOps += 1;
        counters_.shiftSteps += 1;
        break;
      case DwGateType::And:
        // Composite: DMI cell + output inverter.
        counters_.gateOps += 2;
        counters_.shiftSteps += 2;
        break;
    }
    return truth(type_, a, b);
}

DwFanOut::Pair
DwFanOut::split(bool in)
{
    counters_.fanOuts += 1;
    counters_.shiftSteps += 1; // propagation through the branch point
    return {in, in};
}

bool
DwDiode::passForward(bool &bit_in_transit)
{
    if (!enabled_)
        return false;
    counters_.diodePasses += 1;
    counters_.shiftSteps += 1;
    (void)bit_in_transit; // value is unchanged by the diode
    return true;
}

} // namespace streampim
