/**
 * @file
 * Property tests for the arbitrary-precision types against plain
 * 64/128-bit reference arithmetic, driven by the seeded common Rng so
 * failures reproduce bit-for-bit. The references are written
 * independently of the apt implementation (mask + extend only).
 */

#include <gtest/gtest.h>

#include "apt/ap_fixed.h"
#include "apt/ap_int.h"
#include "common/rng.h"

using namespace pld;
using namespace pld::apt;

namespace {

using I128 = __int128;

uint64_t
refMask(int w)
{
    return w >= 64 ? ~0ull : ((1ull << w) - 1);
}

/** Canonical value of the low @p w bits of @p raw. */
int64_t
refValue(uint64_t raw, int w, bool sgn)
{
    raw &= refMask(w);
    if (sgn && w < 64) {
        uint64_t m = 1ull << (w - 1);
        return static_cast<int64_t>((raw ^ m) - m);
    }
    return static_cast<int64_t>(raw);
}

/** AP_TRN shift + AP_WRAP to the target format, in 128 bits. */
uint64_t
refRequantize(I128 scaled, int dst_frac, int src_frac, int w)
{
    I128 aligned = (dst_frac >= src_frac)
                       ? scaled << (dst_frac - src_frac)
                       : scaled >> (src_frac - dst_frac);
    return static_cast<uint64_t>(aligned) & refMask(w);
}

template <int W, bool S>
void
checkIntProperties(uint64_t seed)
{
    Rng rng(seed);
    for (int i = 0; i < 2000; ++i) {
        uint64_t ra = rng.next(), rb = rng.next();
        ApIntBase<W, S> a(ra), b(rb);

        // Construction wraps to W bits; reads canonicalize.
        EXPECT_EQ(a.raw(), ra & refMask(W));
        EXPECT_EQ(static_cast<int64_t>(a.value()), refValue(ra, W, S));

        // Modular add/sub/mul.
        ApIntBase<W, S> s = a;
        s += b;
        EXPECT_EQ(s.raw(), (ra + rb) & refMask(W));
        ApIntBase<W, S> d = a;
        d -= b;
        EXPECT_EQ(d.raw(), (ra - rb) & refMask(W));
        ApIntBase<W, S> m = a;
        m *= b;
        EXPECT_EQ(m.raw(),
                  (static_cast<uint64_t>(refValue(ra, W, S)) *
                   static_cast<uint64_t>(refValue(rb, W, S))) &
                      refMask(W));

        // Bit-range reads agree with plain shifts.
        if (W > 1) {
            int lo = static_cast<int>(rng.below(W));
            int hi = lo + static_cast<int>(rng.below(
                              static_cast<uint64_t>(W - lo)));
            EXPECT_EQ(a.range(hi, lo),
                      (a.raw() >> lo) & refMask(hi - lo + 1));
        }
    }
}

template <int W1, bool S1, int W2, bool S2>
void
checkIntConversion(uint64_t seed)
{
    Rng rng(seed);
    for (int i = 0; i < 2000; ++i) {
        uint64_t r = rng.next();
        ApIntBase<W1, S1> a(r);
        ApIntBase<W2, S2> b(a);
        EXPECT_EQ(b.raw(), static_cast<uint64_t>(
                               refValue(r, W1, S1)) &
                               refMask(W2));
    }
}

template <int W, int I, bool S>
void
checkFixedProperties(uint64_t seed)
{
    using F = ApFixedBase<W, I, S>;
    constexpr int FR = F::fracBits;
    Rng rng(seed);
    for (int i = 0; i < 2000; ++i) {
        uint64_t ra = rng.next(), rb = rng.next();
        F a = F::fromRaw(ra), b = F::fromRaw(rb);
        I128 sa = refValue(ra, W, S), sb = refValue(rb, W, S);
        if (!S) {
            sa = static_cast<I128>(ra & refMask(W));
            sb = static_cast<I128>(rb & refMask(W));
        }

        EXPECT_EQ(static_cast<int64_t>(a.scaled()),
                  static_cast<int64_t>(sa));

        F sum = a;
        sum += b;
        EXPECT_EQ(sum.raw(), refRequantize(sa + sb, FR, FR, W));
        F dif = a;
        dif -= b;
        EXPECT_EQ(dif.raw(), refRequantize(sa - sb, FR, FR, W));
        F prd = a * b;
        EXPECT_EQ(prd.raw(), refRequantize(sa * sb, FR, 2 * FR, W));
        if (sb != 0) {
            F quo = a / b;
            EXPECT_EQ(quo.raw(),
                      refRequantize((sa << FR) / sb, FR, FR, W));
        }

        // Ordering matches the scaled-integer ordering.
        EXPECT_EQ(a < b, sa < sb);
        EXPECT_EQ(a >= b, sa >= sb);
    }
}

template <int W1, int I1, bool S1, int W2, int I2, bool S2>
void
checkFixedConversion(uint64_t seed)
{
    using F1 = ApFixedBase<W1, I1, S1>;
    using F2 = ApFixedBase<W2, I2, S2>;
    Rng rng(seed);
    for (int i = 0; i < 2000; ++i) {
        uint64_t r = rng.next();
        F1 a = F1::fromRaw(r);
        F2 b(a);
        I128 s = S1 ? static_cast<I128>(refValue(r, W1, S1))
                    : static_cast<I128>(r & refMask(W1));
        EXPECT_EQ(b.raw(),
                  refRequantize(s, F2::fracBits, F1::fracBits, W2));
    }
}

} // namespace

TEST(AptProperty, IntWidthsSigned)
{
    checkIntProperties<1, true>(11);
    checkIntProperties<5, true>(12);
    checkIntProperties<8, true>(13);
    checkIntProperties<17, true>(14);
    checkIntProperties<32, true>(15);
    checkIntProperties<33, true>(16);
    checkIntProperties<63, true>(17);
    checkIntProperties<64, true>(18);
}

TEST(AptProperty, IntWidthsUnsigned)
{
    checkIntProperties<1, false>(21);
    checkIntProperties<7, false>(22);
    checkIntProperties<16, false>(23);
    checkIntProperties<24, false>(24);
    checkIntProperties<32, false>(25);
    checkIntProperties<48, false>(26);
    checkIntProperties<64, false>(27);
}

TEST(AptProperty, IntConversions)
{
    checkIntConversion<32, true, 12, false>(31);
    checkIntConversion<12, false, 32, true>(32);
    checkIntConversion<64, true, 31, true>(33);
    checkIntConversion<8, true, 64, false>(34);
    checkIntConversion<17, false, 17, true>(35);
}

TEST(AptProperty, FixedFormats)
{
    checkFixedProperties<8, 4, true>(41);
    checkFixedProperties<16, 8, false>(42);
    checkFixedProperties<24, 12, true>(43);
    checkFixedProperties<32, 9, true>(44);
    checkFixedProperties<20, 4, false>(45);
    checkFixedProperties<32, 2, true>(46);
}

TEST(AptProperty, FixedConversions)
{
    checkFixedConversion<32, 9, true, 16, 8, true>(51);
    checkFixedConversion<16, 8, true, 32, 9, true>(52);
    checkFixedConversion<24, 12, false, 24, 4, true>(53);
    checkFixedConversion<20, 4, true, 20, 16, false>(54);
    checkFixedConversion<8, 8, true, 32, 1, true>(55);
}
