#include "dwlogic/multiplier.hh"

#include "common/log.hh"

namespace streampim
{

DwMultiplier::DwMultiplier(unsigned width, LogicCounters &counters)
    : width_(width), counters_(counters)
{
    SPIM_ASSERT(width_ > 0, "zero-width multiplier");
}

BitVec
DwMultiplier::partialProduct(const BitVec &replica, bool b_bit,
                             unsigned row) const
{
    SPIM_ASSERT(replica.size() == width_, "replica width mismatch");
    SPIM_ASSERT(row < width_, "partial product row out of range");
    BitVec pp(productWidth());
    DwGate and_gate(DwGateType::And, counters_);
    for (unsigned i = 0; i < width_; ++i)
        pp.set(row + i, and_gate.eval(replica.get(i), b_bit));
    return pp;
}

BitVec
DwMultiplier::multiplyReplicas(const std::vector<BitVec> &replicas,
                               const BitVec &b)
{
    SPIM_ASSERT(replicas.size() == width_,
                "need ", width_, " replicas, got ", replicas.size());
    SPIM_ASSERT(b.size() == width_, "multiplier operand width mismatch");

    std::vector<BitVec> rows;
    rows.reserve(width_);
    for (unsigned row = 0; row < width_; ++row)
        rows.push_back(partialProduct(replicas[row], b.get(row), row));

    // The adder tree sums width_ rows of productWidth() bits. The
    // mathematical product fits in 2n bits, so the extra tree levels
    // only carry zeros; truncate back to the product width.
    DwAdderTree tree(width_, productWidth(), counters_);
    BitVec sum = tree.sum(rows);
    sum.resize(productWidth());
    return sum;
}

BitVec
DwMultiplier::multiply(Duplicator &dup, const BitVec &b)
{
    SPIM_ASSERT(dup.width() == width_, "duplicator width mismatch");
    std::vector<BitVec> replicas;
    replicas.reserve(width_);
    for (unsigned i = 0; i < width_; ++i)
        replicas.push_back(dup.duplicate());
    return multiplyReplicas(replicas, b);
}

std::uint64_t
DwMultiplier::multiplyWords(std::uint64_t a, std::uint64_t b)
{
    SPIM_ASSERT(width_ <= 64, "word multiply limited to 64 bits");
    LogicCounters scratch;
    Duplicator dup(width_, scratch);
    dup.load(BitVec::fromWord(a, width_));
    BitVec product = multiply(dup, BitVec::fromWord(b, width_));
    // A product wider than one machine word (width_ > 32) is exact
    // in the BitVec; return its low 64 bits.
    return product.size() <= 64 ? product.toWord() : product.word(0);
}

} // namespace streampim
