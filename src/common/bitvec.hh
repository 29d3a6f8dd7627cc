/**
 * @file
 * A fixed-capacity bit vector used by the bit-accurate domain-wall
 * logic models. Each bit corresponds to one magnetic domain; index 0
 * is the domain closest to the component's output in the shift
 * direction.
 *
 * The store is packed: 64 domains per machine word, so whole-vector
 * operations (conversion, comparison, bitwise combination, shifts,
 * packed addition) cost O(words) instead of O(bits). The packed
 * representation is what makes the word-parallel fast path of the
 * dwlogic units (see dwlogic/mode.hh) cheap; the bit-accurate
 * netlist still drives individual get()/set() accesses.
 *
 * Vectors of up to kInlineWords * 64 bits (all the dwlogic operand
 * and accumulator widths) live in inline storage — constructing and
 * copying them never allocates. Longer vectors (racetrack nanowire
 * images) spill to the heap transparently.
 *
 * Invariant: bits at positions >= size() inside the top word are
 * always zero, so equality, popcount and word extraction never need
 * masking.
 */

#ifndef STREAMPIM_COMMON_BITVEC_HH_
#define STREAMPIM_COMMON_BITVEC_HH_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/simd.hh"

namespace streampim
{

/** Dynamic-width vector of bits with word conversion helpers. */
class BitVec
{
  public:
    /** Domains packed per backing word. */
    static constexpr std::size_t kWordBits = 64;

    /** Backing words held inline (no allocation up to 128 bits). */
    static constexpr std::size_t kInlineWords = 2;

    BitVec() = default;

    /** All-zero vector of @p n bits. */
    explicit BitVec(std::size_t n) { resize(n); }

    /** Vector initialized from a brace list, LSB first. */
    BitVec(std::initializer_list<int> init)
    {
        resize(init.size());
        std::uint64_t *w = words();
        std::size_t i = 0;
        for (int b : init) {
            if (b != 0)
                w[i / kWordBits] |= std::uint64_t(1)
                                    << (i % kWordBits);
            ++i;
        }
    }

    BitVec(const BitVec &) = default;
    BitVec &operator=(const BitVec &) = default;

    /** Moves leave the source empty (its heap store is stolen). */
    BitVec(BitVec &&o) noexcept
        : size_(o.size_), nwords_(o.nwords_),
          heap_(std::move(o.heap_))
    {
        for (std::size_t w = 0; w < kInlineWords; ++w)
            inline_[w] = o.inline_[w];
        o.size_ = 0;
        o.nwords_ = 0;
    }

    BitVec &
    operator=(BitVec &&o) noexcept
    {
        size_ = o.size_;
        nwords_ = o.nwords_;
        heap_ = std::move(o.heap_);
        for (std::size_t w = 0; w < kInlineWords; ++w)
            inline_[w] = o.inline_[w];
        o.size_ = 0;
        o.nwords_ = 0;
        return *this;
    }

    /** Build from the low @p n bits of @p word, LSB at index 0. */
    static BitVec
    fromWord(std::uint64_t word, std::size_t n)
    {
        BitVec v(n);
        if (n > 0)
            v.words()[0] =
                n >= kWordBits
                    ? word
                    : word & ((std::uint64_t(1) << n) - 1);
        return v;
    }

    /** Reassemble into an integer; width must be <= 64. */
    std::uint64_t
    toWord() const
    {
        SPIM_ASSERT(size_ <= kWordBits, "BitVec too wide for toWord");
        return nwords_ == 0 ? 0 : words()[0];
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Number of backing words. */
    std::size_t wordCount() const { return nwords_; }

    /** Backing word @p w (bits [64w, 64w+63], LSB first). */
    std::uint64_t
    word(std::size_t w) const
    {
        SPIM_ASSERT(w < nwords_, "BitVec word index ", w, " out of ",
                    nwords_);
        return words()[w];
    }

    /** Overwrite backing word @p w; bits beyond size() are masked. */
    void
    setWord(std::size_t w, std::uint64_t value)
    {
        SPIM_ASSERT(w < nwords_, "BitVec word index ", w, " out of ",
                    nwords_);
        words()[w] = value;
        maskTop();
    }

    bool
    get(std::size_t i) const
    {
        SPIM_ASSERT(i < size_, "BitVec index ", i, " out of ", size_);
        return (words()[i / kWordBits] >> (i % kWordBits)) & 1u;
    }

    void
    set(std::size_t i, bool v)
    {
        SPIM_ASSERT(i < size_, "BitVec index ", i, " out of ", size_);
        const std::uint64_t mask = std::uint64_t(1) << (i % kWordBits);
        if (v)
            words()[i / kWordBits] |= mask;
        else
            words()[i / kWordBits] &= ~mask;
    }

    /** Append one bit at the MSB end. */
    void
    push(bool v)
    {
        if (size_ % kWordBits == 0)
            setWordCount(nwords_ + 1);
        size_ += 1;
        if (v)
            words()[(size_ - 1) / kWordBits] |=
                std::uint64_t(1) << ((size_ - 1) % kWordBits);
    }

    /** Widen (zero-extend) or truncate to @p n bits. */
    void
    resize(std::size_t n)
    {
        setWordCount(wordsFor(n));
        size_ = n;
        maskTop();
    }

    /** Number of set bits. */
    std::size_t
    popcount() const
    {
        return simd::popcountWords(words(), nwords_);
    }

    /** MSB-first human-readable form, e.g. "0b0101". */
    std::string
    toString() const
    {
        std::string s = "0b";
        for (std::size_t i = size_; i-- > 0;)
            s += get(i) ? '1' : '0';
        return s;
    }

    bool
    operator==(const BitVec &o) const
    {
        return size_ == o.size_ &&
               simd::equalWords(words(), o.words(), nwords_);
    }

    bool operator!=(const BitVec &o) const { return !(*this == o); }

    /** Bitwise combination; operands must have equal width. @{ */
    BitVec &
    operator&=(const BitVec &o)
    {
        SPIM_ASSERT(size_ == o.size_, "BitVec width mismatch: ",
                    size_, " vs ", o.size_);
        simd::andWords(words(), o.words(), nwords_);
        return *this;
    }

    BitVec &
    operator|=(const BitVec &o)
    {
        SPIM_ASSERT(size_ == o.size_, "BitVec width mismatch: ",
                    size_, " vs ", o.size_);
        simd::orWords(words(), o.words(), nwords_);
        return *this;
    }

    BitVec &
    operator^=(const BitVec &o)
    {
        SPIM_ASSERT(size_ == o.size_, "BitVec width mismatch: ",
                    size_, " vs ", o.size_);
        simd::xorWords(words(), o.words(), nwords_);
        return *this;
    }
    /** @} */

    /** Invert every bit in place (width unchanged). */
    BitVec &
    invert()
    {
        simd::notWords(words(), nwords_);
        maskTop();
        return *this;
    }

    /**
     * Shift toward the MSB end by @p n positions (width unchanged,
     * bits shifted past size() are dropped, zeros shift in at the
     * LSB end).
     */
    BitVec &
    operator<<=(std::size_t n)
    {
        if (n >= size_) {
            clear();
            return *this;
        }
        simd::shlWords(words(), nwords_, n / kWordBits,
                       unsigned(n % kWordBits));
        maskTop();
        return *this;
    }

    /** Shift toward the LSB end by @p n positions (zero fill). */
    BitVec &
    operator>>=(std::size_t n)
    {
        if (n >= size_) {
            clear();
            return *this;
        }
        simd::shrWords(words(), nwords_, n / kWordBits,
                       unsigned(n % kWordBits));
        return *this;
    }

    /** Zero every bit (width unchanged). */
    void
    clear()
    {
        simd::zeroWords(words(), nwords_);
    }

    /**
     * Copy @p len bits from @p src starting at @p src_pos into this
     * vector starting at @p dst_pos (word-wise; regions must lie
     * inside both vectors).
     */
    void
    copyRange(const BitVec &src, std::size_t src_pos,
              std::size_t dst_pos, std::size_t len)
    {
        SPIM_ASSERT(src_pos + len <= src.size_,
                    "copyRange source overrun");
        SPIM_ASSERT(dst_pos + len <= size_,
                    "copyRange destination overrun");
        simd::copyBits(words(), dst_pos, src.words(), src_pos, len);
    }

    /**
     * The @p len (<= 64) bits starting at @p pos, packed LSB first;
     * the span must lie inside the vector.
     */
    std::uint64_t
    bits(std::size_t pos, unsigned len) const
    {
        SPIM_ASSERT(len <= kWordBits && pos + len <= size_,
                    "BitVec span [", pos, ", ", pos + len,
                    ") out of ", size_);
        if (len == 0)
            return 0;
        const std::uint64_t *w = words();
        const unsigned s = unsigned(pos % kWordBits);
        std::uint64_t v = w[pos / kWordBits] >> s;
        if (s != 0 && s + len > kWordBits)
            v |= w[pos / kWordBits + 1] << (kWordBits - s);
        return len == kWordBits ? v
                                : v & ((std::uint64_t(1) << len) - 1);
    }

    /** Overwrite the @p len (<= 64) bits at @p pos with @p value's
     * low bits. */
    void
    setBits(std::size_t pos, unsigned len, std::uint64_t value)
    {
        SPIM_ASSERT(len <= kWordBits && pos + len <= size_,
                    "BitVec span [", pos, ", ", pos + len,
                    ") out of ", size_);
        simd::copyBits(words(), pos, &value, 0, len);
    }

    /**
     * Packed binary addition: sum = (a + b + cin) mod 2^sum.size(),
     * computed word-wise. Operands narrower than the sum are
     * zero-extended; wider operands are a caller bug.
     * @return the carry out of bit sum.size()-1.
     */
    static bool
    addPacked(BitVec &sum, const BitVec &a, const BitVec &b,
              bool cin = false)
    {
        SPIM_ASSERT(a.size_ <= sum.size_ && b.size_ <= sum.size_,
                    "addPacked operands wider than the sum");
        std::uint64_t *sumw = sum.words();
        bool carry =
            simd::addWords(sumw, sum.nwords_, a.words(), a.nwords_,
                           b.words(), b.nwords_, cin);
        // The carry out of the sum width lives at bit size() of the
        // unmasked top word when the width is not word-aligned.
        const std::size_t top = sum.size_ % kWordBits;
        if (top != 0) {
            carry = (sumw[sum.nwords_ - 1] >> top) & 1u;
            sum.maskTop();
        }
        return carry;
    }

  private:
    static std::size_t
    wordsFor(std::size_t bits)
    {
        return (bits + kWordBits - 1) / kWordBits;
    }

    bool onHeap() const { return nwords_ > kInlineWords; }

    std::uint64_t *words() { return onHeap() ? heap_.data() : inline_; }

    const std::uint64_t *
    words() const
    {
        return onHeap() ? heap_.data() : inline_;
    }

    /**
     * Change the backing word count, migrating between the inline
     * buffer and the heap store as needed. New words are zeroed;
     * retained words keep their value.
     *
     * Capacity guarantee (pinned by the allocation-counter test):
     * shrinking — even down into the inline buffer — never releases
     * heap_'s storage (clear()/resize() keep the vector's
     * capacity), and regrowing reuses it (assign() and resize()
     * only allocate beyond the high-water mark). A BitVec cycled
     * through resize() therefore allocates at most once, at its
     * largest size ever — scratch vectors in hot loops stay
     * allocation-free in steady state.
     */
    void
    setWordCount(std::size_t nw)
    {
        if (nw == nwords_)
            return;
        if (nw > nwords_) {
            if (nw > kInlineWords) {
                if (!onHeap())
                    heap_.assign(inline_, inline_ + nwords_);
                heap_.resize(nw, 0);
            } else {
                for (std::size_t w = nwords_; w < nw; ++w)
                    inline_[w] = 0;
            }
        } else {
            if (onHeap() && nw <= kInlineWords) {
                for (std::size_t w = 0; w < nw; ++w)
                    inline_[w] = heap_[w];
                heap_.clear();
            } else if (nw > kInlineWords) {
                heap_.resize(nw);
            }
        }
        nwords_ = nw;
    }

    /** Re-establish the zero-bits-above-size invariant. */
    void
    maskTop()
    {
        const std::size_t top = size_ % kWordBits;
        if (top != 0 && nwords_ > 0)
            words()[nwords_ - 1] &= (std::uint64_t(1) << top) - 1;
    }

    std::size_t size_ = 0;   //!< width in bits
    std::size_t nwords_ = 0; //!< backing words in use
    std::uint64_t inline_[kInlineWords] = {};
    std::vector<std::uint64_t> heap_; //!< used when onHeap()
};

} // namespace streampim

#endif // STREAMPIM_COMMON_BITVEC_HH_
