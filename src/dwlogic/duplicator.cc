#include "dwlogic/duplicator.hh"

#include "common/log.hh"

namespace streampim
{

Duplicator::Duplicator(unsigned width, LogicCounters &counters)
    : width_(width), counters_(counters), fanOut_(counters),
      diode_(counters)
{
    SPIM_ASSERT(width_ > 0, "zero-width duplicator");
}

void
Duplicator::load(const BitVec &word)
{
    SPIM_ASSERT(phase_ == DuplicatorStep::Idle,
                "load while a word is in flight");
    SPIM_ASSERT(word.size() == width_,
                "word width ", word.size(), " != duplicator width ",
                width_);
    origin_ = word;
    phase_ = DuplicatorStep::Ready;
}

void
Duplicator::step()
{
    switch (phase_) {
      case DuplicatorStep::Idle:
        SPIM_PANIC("step() on an idle duplicator");

      case DuplicatorStep::Ready:
        // Step 1: shift the origin word toward the branch point. The
        // origin position is now vacated.
        counters_.shiftSteps += width_;
        phase_ = DuplicatorStep::Propagate;
        break;

      case DuplicatorStep::Propagate: {
        // Step 2: every bit splits in two at the fan-out point.
        SPIM_ASSERT(!output_.has_value(),
                    "previous replica not consumed before duplication");
        BitVec forward(width_);
        BitVec backward(width_);
        for (unsigned i = 0; i < width_; ++i) {
            auto pair = fanOut_.split(origin_->get(i));
            forward.set(i, pair.first);
            backward.set(i, pair.second);
        }
        output_ = std::move(forward);
        inFlight_ = std::move(backward);
        phase_ = DuplicatorStep::Split;
        break;
      }

      case DuplicatorStep::Split:
        // Step 3: the backward replica passes through the enabled
        // diode toward the origin. The diode prevents the forward
        // branch from back-flowing.
        diode_.enable();
        for (unsigned i = 0; i < width_; ++i) {
            bool bit = inFlight_->get(i);
            bool passed = diode_.passForward(bit);
            SPIM_ASSERT(passed, "diode rejected an enabled pass");
        }
        phase_ = DuplicatorStep::ReturnReplica;
        break;

      case DuplicatorStep::ReturnReplica:
        // Step 4: replica settles at the origin; disable the diode so
        // subsequent forward shifts do not leak backward.
        origin_ = std::move(*inFlight_);
        inFlight_.reset();
        diode_.disable();
        counters_.shiftSteps += width_;
        cycles_ += 1;
        phase_ = DuplicatorStep::Ready;
        break;
    }
}

BitVec
Duplicator::takeOutput()
{
    SPIM_ASSERT(output_.has_value(), "no replica available");
    BitVec out = std::move(*output_);
    output_.reset();
    return out;
}

const BitVec &
Duplicator::origin() const
{
    SPIM_ASSERT(origin_.has_value(), "duplicator is idle");
    return *origin_;
}

BitVec
Duplicator::duplicate()
{
    SPIM_ASSERT(phase_ == DuplicatorStep::Ready,
                "duplicate() requires the Ready phase");
    step(); // Ready -> Propagate
    step(); // Propagate -> Split (fan-out happens)
    step(); // Split -> ReturnReplica (diode pass)
    step(); // ReturnReplica -> Ready (origin restored)
    return takeOutput();
}

BitVec
Duplicator::unload()
{
    SPIM_ASSERT(phase_ == DuplicatorStep::Ready,
                "unload() requires the Ready phase");
    SPIM_ASSERT(!output_.has_value(),
                "unload() with an unconsumed replica");
    BitVec word = std::move(*origin_);
    origin_.reset();
    phase_ = DuplicatorStep::Idle;
    return word;
}

} // namespace streampim
