/**
 * @file
 * Vector Processing Commands — the host/device interface of
 * StreamPIM (Sec. IV-A, Table II).
 *
 * The host programs the device at vector granularity: a VPC names
 * two source vectors, a destination and a size. Table II:
 *
 *   MUL  src1,src2,des,size   dot product
 *   SMUL src1,src2,des,size   scalar-vector multiplication
 *   ADD  src1,src2,des,size   vector addition
 *   TRAN src,des,size         data transfer
 */

#ifndef STREAMPIM_VPC_VPC_HH_
#define STREAMPIM_VPC_VPC_HH_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace streampim
{

/** VPC opcodes of Table II. */
enum class VpcKind : std::uint8_t
{
    Mul,  //!< dot product
    Smul, //!< scalar-vector multiplication
    Add,  //!< vector addition
    Tran, //!< data transfer
};

/** Human-readable mnemonic. */
constexpr const char *
vpcKindName(VpcKind k)
{
    switch (k) {
      case VpcKind::Mul: return "MUL";
      case VpcKind::Smul: return "SMUL";
      case VpcKind::Add: return "ADD";
      case VpcKind::Tran: return "TRAN";
    }
    return "?";
}

/** True for the PIM (compute) commands, false for data movement. */
constexpr bool
isPimVpc(VpcKind k)
{
    return k != VpcKind::Tran;
}

/** One vector processing command. */
struct Vpc
{
    VpcKind kind;
    Addr src1 = 0;
    Addr src2 = 0; //!< unused by TRAN
    Addr dst = 0;
    std::uint32_t size = 0; //!< elements

    std::string
    toString() const
    {
        std::string s = vpcKindName(kind);
        s += " src1=" + std::to_string(src1);
        if (kind != VpcKind::Tran)
            s += " src2=" + std::to_string(src2);
        s += " des=" + std::to_string(dst);
        s += " size=" + std::to_string(size);
        return s;
    }
};

/**
 * The device-side VPC queue of the asynchronous send-response
 * protocol (Sec. IV-B, Fig. 14): incoming commands buffer here; a
 * response is recorded when a VPC completes.
 *
 * Storage is a ring buffer that grows geometrically up to the queue
 * capacity and never shrinks: a submit/drain cycle that fits the
 * high-water mark performs no heap allocation (a deque would free
 * and reallocate node blocks as its iterators sweep across them).
 */
class VpcQueue
{
  public:
    explicit VpcQueue(std::size_t capacity) : capacity_(capacity)
    {
        SPIM_ASSERT(capacity > 0, "VPC queue needs capacity");
    }

    bool full() const { return count_ >= capacity_; }
    bool empty() const { return count_ == 0; }
    std::size_t depth() const { return count_; }
    std::size_t capacity() const { return capacity_; }

    /** Enqueue a command; @return false when the queue is full. */
    bool
    push(const Vpc &vpc)
    {
        if (full())
            return false;
        if (count_ == ring_.size())
            grow();
        std::size_t tail = head_ + count_;
        if (tail >= ring_.size())
            tail -= ring_.size();
        ring_[tail] = vpc;
        count_++;
        return true;
    }

    /** Dequeue the next command for decoding. */
    Vpc
    pop()
    {
        SPIM_ASSERT(count_ > 0, "pop from an empty VPC queue");
        Vpc v = ring_[head_];
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
        count_--;
        return v;
    }

    /** Record a completion response back to the host. */
    void respond() { responses_++; }

    std::uint64_t responses() const { return responses_; }

  private:
    /** Double the ring (linearizing the live span), up to capacity. */
    void
    grow()
    {
        std::size_t want = ring_.empty() ? 16 : ring_.size() * 2;
        want = std::min(want, capacity_);
        want = std::max(want, count_ + 1);
        std::vector<Vpc> next(want);
        for (std::size_t i = 0; i < count_; ++i) {
            std::size_t idx = head_ + i;
            if (idx >= ring_.size())
                idx -= ring_.size();
            next[i] = ring_[idx];
        }
        ring_ = std::move(next);
        head_ = 0;
    }

    std::size_t capacity_;
    std::vector<Vpc> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::uint64_t responses_ = 0;
};

} // namespace streampim

#endif // STREAMPIM_VPC_VPC_HH_
