/**
 * @file
 * Memory-efficient arbitrary-precision integer types.
 *
 * Reproduces the paper's Sec 5.2 contribution: ap_int / ap_uint
 * compatible with vendor HLS semantics but using the minimum storage
 * footprint (1, 2, 4 or 8 bytes chosen from the bit width) so operator
 * code and data fit into small softcore page memories.
 *
 * Semantics follow the HLS convention: values wrap modulo 2^W on
 * assignment; mixed-width arithmetic is performed at full precision and
 * truncated on store. Widths of 1..64 bits are supported; products are
 * computed in 128-bit intermediates so no precision is lost for the
 * widths the Rosetta kernels use (<= ap_fixed<64,40>).
 */

#ifndef PLD_APT_AP_INT_H
#define PLD_APT_AP_INT_H

#include <cstdint>
#include <string>
#include <type_traits>

namespace pld {
namespace apt {

namespace detail {

/** Smallest unsigned storage type holding W bits. */
template <int W>
struct Storage
{
    static_assert(W >= 1 && W <= 64, "ap_int supports 1..64 bits");
    using type = std::conditional_t<
        (W <= 8), uint8_t,
        std::conditional_t<(W <= 16), uint16_t,
                           std::conditional_t<(W <= 32), uint32_t,
                                              uint64_t>>>;
};

/** Mask of the low W bits. */
constexpr uint64_t
maskBits(int w)
{
    return w >= 64 ? ~0ull : ((1ull << w) - 1);
}

/** Sign-extend the low w bits of v to 64 bits. */
constexpr int64_t
signExtend(uint64_t v, int w)
{
    if (w >= 64)
        return static_cast<int64_t>(v);
    uint64_t m = 1ull << (w - 1);
    v &= maskBits(w);
    return static_cast<int64_t>((v ^ m) - m);
}

} // namespace detail

template <int W, bool Signed>
class ApIntBase;

/**
 * Proxy for a contiguous bit range of an ApIntBase, supporting both
 * read (implicit conversion) and write (assignment), mirroring the HLS
 * `x(hi, lo) = ...` idiom used throughout the Rosetta kernels.
 */
template <int W, bool Signed>
class BitRange
{
  public:
    BitRange(ApIntBase<W, Signed> &owner, int hi, int lo)
        : owner(owner), hi(hi), lo(lo)
    {
    }

    /** Read the selected bits, right-aligned. */
    operator uint64_t() const;

    /** Write the selected bits from the low bits of @p v. */
    BitRange &operator=(uint64_t v);

    /** Copy bits between ranges. */
    BitRange &
    operator=(const BitRange &other)
    {
        return *this = static_cast<uint64_t>(other);
    }

  private:
    ApIntBase<W, Signed> &owner;
    int hi, lo;
};

/**
 * Fixed-width integer of W bits, signed or unsigned. The canonical
 * in-memory representation keeps only the low W bits; reads
 * sign/zero-extend as appropriate.
 */
template <int W, bool Signed>
class ApIntBase
{
  public:
    using StorageT = typename detail::Storage<W>::type;
    /** Natural C++ type produced by reads. */
    using ValueT = std::conditional_t<Signed, int64_t, uint64_t>;

    static constexpr int width = W;
    static constexpr bool isSigned = Signed;

    ApIntBase() : bits(0) {}

    /** Construct from any integer, wrapping modulo 2^W. */
    ApIntBase(int64_t v) { assignRaw(static_cast<uint64_t>(v)); }
    ApIntBase(uint64_t v) { assignRaw(v); }
    ApIntBase(int v) { assignRaw(static_cast<uint64_t>(int64_t(v))); }
    ApIntBase(unsigned v) { assignRaw(v); }
    ApIntBase(long long v) { assignRaw(static_cast<uint64_t>(v)); }
    ApIntBase(unsigned long long v) { assignRaw(v); }

    /** Construct from another width, re-wrapping. */
    template <int W2, bool S2>
    ApIntBase(const ApIntBase<W2, S2> &other)
    {
        assignRaw(static_cast<uint64_t>(other.value()));
    }

    /** Read as the natural 64-bit value (sign/zero extended). */
    ValueT
    value() const
    {
        if constexpr (Signed)
            return detail::signExtend(bits, W);
        else
            return static_cast<uint64_t>(bits);
    }

    /** Implicit conversion used in arithmetic contexts. */
    operator ValueT() const { return value(); }

    /** Raw low-W-bit pattern. */
    uint64_t raw() const { return bits; }

    /** Overwrite the raw bit pattern (wraps to W bits). */
    void
    setRaw(uint64_t v)
    {
        assignRaw(v);
    }

    /** Select bits [hi:lo] for read or write. */
    BitRange<W, Signed>
    operator()(int hi, int lo)
    {
        return BitRange<W, Signed>(*this, hi, lo);
    }

    /** Read-only bit-range select. */
    uint64_t
    range(int hi, int lo) const
    {
        uint64_t v = bits >> lo;
        return v & detail::maskBits(hi - lo + 1);
    }

    /** Single-bit read. */
    bool bit(int idx) const { return (bits >> idx) & 1; }

    /** Single-bit write. */
    void
    setBit(int idx, bool v)
    {
        uint64_t m = 1ull << idx;
        bits = static_cast<StorageT>(v ? (bits | m) : (bits & ~m));
    }

    ApIntBase &
    operator+=(const ApIntBase &o)
    {
        assignRaw(bits + o.bits);
        return *this;
    }
    ApIntBase &
    operator-=(const ApIntBase &o)
    {
        assignRaw(bits - o.bits);
        return *this;
    }
    ApIntBase &
    operator*=(const ApIntBase &o)
    {
        // Multiply in uint64_t: the same modular result, without
        // signed overflow for W > 32.
        assignRaw(static_cast<uint64_t>(value()) *
                  static_cast<uint64_t>(o.value()));
        return *this;
    }
    ApIntBase &
    operator++()
    {
        assignRaw(bits + 1);
        return *this;
    }
    ApIntBase
    operator++(int)
    {
        ApIntBase t = *this;
        assignRaw(bits + 1);
        return t;
    }

    /** Decimal string for debugging/tests. */
    std::string toString() const { return std::to_string(value()); }

  private:
    void
    assignRaw(uint64_t v)
    {
        bits = static_cast<StorageT>(v & detail::maskBits(W));
    }

    StorageT bits;
};

template <int W, bool S>
BitRange<W, S>::operator uint64_t() const
{
    return owner.range(hi, lo);
}

template <int W, bool S>
BitRange<W, S> &
BitRange<W, S>::operator=(uint64_t v)
{
    int n = hi - lo + 1;
    uint64_t field_mask = detail::maskBits(n) << lo;
    uint64_t raw = owner.raw();
    raw = (raw & ~field_mask) | ((v << lo) & field_mask);
    owner.setRaw(raw);
    return *this;
}

/** Signed arbitrary-precision integer (HLS-compatible alias). */
template <int W>
using ap_int = ApIntBase<W, true>;

/** Unsigned arbitrary-precision integer (HLS-compatible alias). */
template <int W>
using ap_uint = ApIntBase<W, false>;

} // namespace apt
} // namespace pld

#endif // PLD_APT_AP_INT_H
