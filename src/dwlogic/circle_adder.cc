#include "dwlogic/circle_adder.hh"

#include "common/log.hh"

namespace streampim
{

CircleAdder::CircleAdder(unsigned width, LogicCounters &counters)
    : width_(width), counters_(counters), adder_(width, counters),
      diode_(counters), acc_(width), operand_(width), pending_(width)
{
    SPIM_ASSERT(width_ > 0, "zero-width circle adder");
}

void
CircleAdder::clear()
{
    SPIM_ASSERT(phase_ == CircleAdderStep::AwaitOperand,
                "clear() mid-accumulation");
    acc_ = BitVec(width_);
    overflowed_ = false;
}

void
CircleAdder::loadOperand(const BitVec &product)
{
    SPIM_ASSERT(phase_ == CircleAdderStep::AwaitOperand &&
                !operandLoaded_,
                "operand slot is occupied");
    SPIM_ASSERT(product.size() <= width_,
                "product wider than accumulator: ", product.size(),
                " > ", width_);
    operand_ = product;
    operand_.resize(width_);
    operandLoaded_ = true;
}

void
CircleAdder::step()
{
    switch (phase_) {
      case CircleAdderStep::AwaitOperand: {
        // Step 1: full adder combines operand and accumulator.
        SPIM_ASSERT(operandLoaded_, "step() without a loaded operand");
        auto r = adder_.add(operand_, acc_);
        if (r.carry)
            overflowed_ = true;
        pending_ = std::move(r.sum);
        phase_ = CircleAdderStep::Added;
        break;
      }

      case CircleAdderStep::Added: {
        // Step 2: s2 shifts across the diode (one step per bit wire).
        diode_.enable();
        for (unsigned i = 0; i < width_; ++i) {
            bool bit = pending_.get(i);
            bool passed = diode_.passForward(bit);
            SPIM_ASSERT(passed, "diode rejected an enabled pass");
        }
        phase_ = CircleAdderStep::DiodePassed;
        break;
      }

      case CircleAdderStep::DiodePassed:
        // Step 3: circulate back to the accumulator slot.
        counters_.shiftSteps += width_;
        diode_.disable();
        acc_ = std::move(pending_);
        pending_ = BitVec(width_);
        phase_ = CircleAdderStep::Circulated;
        break;

      case CircleAdderStep::Circulated:
        // Step 4: the operand slot frees up for the next product.
        operand_ = BitVec(width_);
        operandLoaded_ = false;
        accumulations_ += 1;
        phase_ = CircleAdderStep::AwaitOperand;
        break;
    }
}

void
CircleAdder::accumulate(const BitVec &product)
{
    loadOperand(product);
    step(); // add
    step(); // diode
    step(); // circulate
    step(); // free operand slot
}

void
CircleAdder::accumulateWord(std::uint64_t product, unsigned bits)
{
    accumulate(BitVec::fromWord(product, bits));
}

void
CircleAdder::install(std::uint64_t acc, std::uint64_t accumulations,
                     bool overflowed)
{
    SPIM_ASSERT(phase_ == CircleAdderStep::AwaitOperand &&
                !operandLoaded_,
                "install() mid-accumulation");
    SPIM_ASSERT(width_ <= 64, "install() needs a word-size adder");
    acc_ = BitVec::fromWord(acc, width_);
    accumulations_ += accumulations;
    overflowed_ = overflowed_ || overflowed;
}

BitVec
CircleAdder::addScalars(const BitVec &a, const BitVec &b)
{
    SPIM_ASSERT(phase_ == CircleAdderStep::AwaitOperand &&
                !operandLoaded_,
                "scalar add mid-accumulation");
    SPIM_ASSERT(a.size() <= width_ && b.size() <= width_,
                "scalar operands wider than the adder");
    // Operands shift across the full adder; the result leaves the
    // circle without circulating (Sec. III-C).
    auto r = adder_.add(a, b);
    BitVec sum = std::move(r.sum);
    if (r.carry)
        overflowed_ = true;
    counters_.shiftSteps += width_;
    return sum;
}

} // namespace streampim
