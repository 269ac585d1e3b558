#include "rns/simd_kernels.h"

#include <algorithm>

#include "rns/bconv.h"
#include "rns/modulus.h"
#include "rns/ntt.h"
#include "rns/poly.h"

#if (defined(__x86_64__) || defined(__i386__)) &&                        \
    (defined(__GNUC__) || defined(__clang__))
#define ARK_SIMD_X86 1
#include <immintrin.h>
// GCC's AVX-512 intrinsic headers self-initialize the result of
// _mm512_undefined_epi32() (`__Y = __Y`), which trips
// -Wmaybe-uninitialized when those intrinsics inline into our
// kernels (GCC bug 105593). The value is overwritten by the masked
// builtin before use; silence the false positive for this TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
#endif

namespace ark {

namespace {

// ---------------------------------------------------------------------------
// Scalar table: the reference loop bodies every vector entry must
// match bit for bit. The vector entries also run them on the words
// that do not fill a whole vector.
// ---------------------------------------------------------------------------

void
nttForwardScalar(u64 *limb, const NttTables &table)
{
    table.forward(limb);
}

void
nttInverseScalar(u64 *limb, const NttTables &table)
{
    table.inverse(limb);
}

void
bconvTileScalar(const BaseConverter &bc, const RnsPoly &in, size_t c0,
                size_t c1, u64 *scratch, RnsPoly &out)
{
    bc.convertTile(in, c0, c1, scratch, out);
}

void
evkMacLimbScalar(const Modulus &m, const u64 *d, const u64 *kb,
                 const u64 *ka, u64 *ab, u64 *aa, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        ab[i] = m.add(ab[i], m.mul(d[i], kb[i]));
        aa[i] = m.add(aa[i], m.mul(d[i], ka[i]));
    }
}

void
mulEvalLimbScalar(const Modulus &m, const u64 *a, const u64 *b, u64 *r,
                  size_t n)
{
    for (size_t i = 0; i < n; ++i)
        r[i] = m.mul(a[i], b[i]);
}

void
mulAccLimbScalar(const Modulus &m, const u64 *a, const u64 *b, u64 *r,
                 size_t n)
{
    for (size_t i = 0; i < n; ++i)
        r[i] = m.add(r[i], m.mul(a[i], b[i]));
}

void
addLimbScalar(const Modulus &m, const u64 *a, const u64 *b, u64 *r,
              size_t n)
{
    for (size_t i = 0; i < n; ++i)
        r[i] = m.add(a[i], b[i]);
}

void
subLimbScalar(const Modulus &m, const u64 *a, const u64 *b, u64 *r,
              size_t n)
{
    for (size_t i = 0; i < n; ++i)
        r[i] = m.sub(a[i], b[i]);
}

void
mulScalarLimbScalar(const Modulus &m, const u64 *a, const u64 *b, u64 s,
                    u64 *r, size_t n)
{
    const u64 ss = m.shoupPrecompute(s);
    if (b == nullptr) {
        for (size_t i = 0; i < n; ++i)
            r[i] = m.mulShoup(a[i], s, ss);
        return;
    }
    for (size_t i = 0; i < n; ++i)
        r[i] = m.mulShoup(m.sub(a[i], b[i]), s, ss);
}

void
limbEmbedScalar(const u64 *src, size_t n, u64 src_q, const Modulus &m,
                u64 *dst)
{
    const u64 half = src_q / 2;
    const u64 q0_mod = m.reduceWord(src_q);
    for (size_t i = 0; i < n; ++i) {
        const u64 v = src[i];
        const u64 r = m.reduceWord(v);
        // A value above src_q / 2 is a negative centered residue.
        dst[i] = v > half ? m.sub(r, q0_mod) : r;
    }
}

void
plainMacLimbScalar(const u64 *pt, const u64 *b, const u64 *a, u64 *acc,
                   size_t n)
{
    u64 *b_lo = acc, *b_hi = acc + n, *a_lo = acc + 2 * n,
        *a_hi = acc + 3 * n;
    for (size_t i = 0; i < n; ++i) {
        const u128 sb = ((static_cast<u128>(b_hi[i]) << 64) | b_lo[i]) +
                        static_cast<u128>(pt[i]) * b[i];
        const u128 sa = ((static_cast<u128>(a_hi[i]) << 64) | a_lo[i]) +
                        static_cast<u128>(pt[i]) * a[i];
        b_lo[i] = static_cast<u64>(sb);
        b_hi[i] = static_cast<u64>(sb >> 64);
        a_lo[i] = static_cast<u64>(sa);
        a_hi[i] = static_cast<u64>(sa >> 64);
    }
}

void
plainReduceLimbScalar(const Modulus &m, const u64 *acc, size_t n,
                      u64 *out_b, u64 *out_a)
{
    for (size_t i = 0; i < n; ++i) {
        out_b[i] = m.reduce((static_cast<u128>(acc[n + i]) << 64) | acc[i]);
        out_a[i] = m.reduce((static_cast<u128>(acc[3 * n + i]) << 64) |
                            acc[2 * n + i]);
    }
}

} // namespace

#ifdef ARK_SIMD_X86

// Function-level target attributes (instead of per-file -mavx* flags)
// keep every vector instruction inside these bodies: nothing outside
// can accidentally be auto-vectorized with an ISA the host lacks, and
// runtime dispatch via detectSimdTier() stays safe in one binary.
#define ARK_T512 __attribute__((target("avx512f,avx512dq")))
#define ARK_TIFMA __attribute__((target("avx512f,avx512dq,avx512ifma")))
#define ARK_T256 __attribute__((target("avx2")))

namespace {

// ---------------------------------------------------------------------------
// AVX-512F helpers: 64x64 multiplies built from 32x32->64 partial
// products (_mm512_mul_epu32 reads the low 32 bits of each lane).
// All arithmetic is exact mod 2^64, so lane k computes precisely what
// the scalar loop computes for element k.
// ---------------------------------------------------------------------------

ARK_T512 inline __m512i
set1_512(u64 v)
{
    return _mm512_set1_epi64(static_cast<long long>(v));
}

ARK_T512 inline __m512i
load512(const u64 *p)
{
    return _mm512_loadu_si512(p);
}

ARK_T512 inline void
store512(u64 *p, __m512i v)
{
    _mm512_storeu_si512(p, v);
}

/** v >= bound ? v - bound : v (unsigned), lane-wise. */
ARK_T512 inline __m512i
csub512(__m512i v, __m512i bound)
{
    return _mm512_mask_sub_epi64(
        v, _mm512_cmpge_epu64_mask(v, bound), v, bound);
}

/** Low 64 bits of x * c per lane; c_hi is unused on this tier (the
 *  tier requires AVX-512DQ, whose vpmullq is a native 64-bit low
 *  multiply) but kept so call sites read the same as the AVX2 path. */
ARK_T512 inline __m512i
mullo64_512(__m512i x, __m512i c, __m512i c_hi)
{
    (void)c_hi;
    return _mm512_mullo_epi64(x, c);
}

/** High 64 bits of x * c per lane. */
ARK_T512 inline __m512i
mulhi64_512(__m512i x, __m512i c, __m512i c_hi, __m512i m32)
{
    const __m512i x_hi = _mm512_srli_epi64(x, 32);
    const __m512i ll = _mm512_mul_epu32(x, c);
    const __m512i lh = _mm512_mul_epu32(x, c_hi);
    const __m512i hl = _mm512_mul_epu32(x_hi, c);
    const __m512i hh = _mm512_mul_epu32(x_hi, c_hi);
    const __m512i mid = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_srli_epi64(ll, 32),
                         _mm512_and_si512(lh, m32)),
        _mm512_and_si512(hl, m32));
    return _mm512_add_epi64(
        _mm512_add_epi64(hh, _mm512_srli_epi64(lh, 32)),
        _mm512_add_epi64(_mm512_srli_epi64(hl, 32),
                         _mm512_srli_epi64(mid, 32)));
}

/** Full 128-bit product x * c per lane, as (lo, hi) vectors. */
ARK_T512 inline void
mul64_512(__m512i x, __m512i c, __m512i c_hi, __m512i m32, __m512i *lo,
          __m512i *hi)
{
    const __m512i x_hi = _mm512_srli_epi64(x, 32);
    const __m512i ll = _mm512_mul_epu32(x, c);
    const __m512i lh = _mm512_mul_epu32(x, c_hi);
    const __m512i hl = _mm512_mul_epu32(x_hi, c);
    const __m512i hh = _mm512_mul_epu32(x_hi, c_hi);
    const __m512i mid = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_srli_epi64(ll, 32),
                         _mm512_and_si512(lh, m32)),
        _mm512_and_si512(hl, m32));
    *lo = _mm512_or_si512(_mm512_slli_epi64(mid, 32),
                          _mm512_and_si512(ll, m32));
    *hi = _mm512_add_epi64(
        _mm512_add_epi64(hh, _mm512_srli_epi64(lh, 32)),
        _mm512_add_epi64(_mm512_srli_epi64(hl, 32),
                         _mm512_srli_epi64(mid, 32)));
}

/** Modulus::mulShoupLazy lane-wise: result in [0, 2q) per lane. */
ARK_T512 inline __m512i
mulShoupLazy512(__m512i x, __m512i w, __m512i w_hi, __m512i ws,
                __m512i ws_hi, __m512i q, __m512i q_hi, __m512i m32)
{
    const __m512i hi = mulhi64_512(x, ws, ws_hi, m32);
    return _mm512_sub_epi64(mullo64_512(x, w, w_hi),
                            mullo64_512(hi, q, q_hi));
}

/**
 * Shoup product with an approximate quotient: drops the low x low
 * partial and the mid-column carry of mulhi(x, ws), so the quotient
 * underestimates floor(x * ws / 2^64) by at most 2 and the result
 * lands in [0, 4q) instead of Shoup's usual [0, 2q). The NTT kernels
 * absorb the wider range in their lazy domain (values stay below 8q,
 * hence the q < 2^60 kernel guard) and re-canonicalize at the end, so
 * outputs still match the scalar transforms bit for bit while each
 * butterfly spends three 32x32 partials instead of five.
 */
ARK_T512 inline __m512i
mulShoupApprox512(__m512i x, __m512i w, __m512i ws, __m512i ws_hi,
                  __m512i q)
{
    const __m512i x_hi = _mm512_srli_epi64(x, 32);
    const __m512i lh = _mm512_mul_epu32(x, ws_hi);
    const __m512i hl = _mm512_mul_epu32(x_hi, ws);
    const __m512i hh = _mm512_mul_epu32(x_hi, ws_hi);
    const __m512i q_est = _mm512_add_epi64(
        _mm512_add_epi64(hh, _mm512_srli_epi64(lh, 32)),
        _mm512_srli_epi64(hl, 32));
    return _mm512_sub_epi64(_mm512_mullo_epi64(x, w),
                            _mm512_mullo_epi64(q_est, q));
}

/** Broadcast reduction constants of one Modulus. */
struct Mod512
{
    __m512i q, q_hi, two_q;
    __m512i b_lo, b_lo_hi, b_hi, b_hi_hi;
    __m512i m32;
};

ARK_T512 inline Mod512
loadMod512(const Modulus &m)
{
    Mod512 md;
    md.q = set1_512(m.value());
    md.q_hi = set1_512(m.value() >> 32);
    md.two_q = set1_512(m.twoQ());
    md.b_lo = set1_512(m.barrettLo());
    md.b_lo_hi = set1_512(m.barrettLo() >> 32);
    md.b_hi = set1_512(m.barrettHi());
    md.b_hi_hi = set1_512(m.barrettHi() >> 32);
    md.m32 = set1_512(0xffffffffULL);
    return md;
}

/**
 * Modulus::reduce lane-wise: Barrett reduction of the 128-bit value
 * (x_hi:x_lo) to [0, q). Same partial products, same carry counting,
 * same two conditional subtracts — bit-identical per lane.
 */
ARK_T512 inline __m512i
barrett512(__m512i x_lo, __m512i x_hi, const Mod512 &md)
{
    const __m512i lolo_hi = mulhi64_512(x_lo, md.b_lo, md.b_lo_hi, md.m32);
    __m512i lohi_lo, lohi_hi;
    mul64_512(x_lo, md.b_hi, md.b_hi_hi, md.m32, &lohi_lo, &lohi_hi);
    __m512i hilo_lo, hilo_hi;
    mul64_512(x_hi, md.b_lo, md.b_lo_hi, md.m32, &hilo_lo, &hilo_hi);
    const __m512i hihi_lo = mullo64_512(x_hi, md.b_hi, md.b_hi_hi);

    const __m512i one = _mm512_set1_epi64(1);
    const __m512i mid = _mm512_add_epi64(lolo_hi, lohi_lo);
    __m512i mid_hi = _mm512_maskz_mov_epi64(
        _mm512_cmplt_epu64_mask(mid, lohi_lo), one);
    const __m512i mid2 = _mm512_add_epi64(mid, hilo_lo);
    mid_hi = _mm512_mask_add_epi64(
        mid_hi, _mm512_cmplt_epu64_mask(mid2, hilo_lo), mid_hi, one);

    const __m512i q_est =
        _mm512_add_epi64(_mm512_add_epi64(hihi_lo, lohi_hi),
                         _mm512_add_epi64(hilo_hi, mid_hi));
    __m512i r =
        _mm512_sub_epi64(x_lo, mullo64_512(q_est, md.q, md.q_hi));
    r = csub512(r, md.two_q);
    return csub512(r, md.q);
}

/**
 * Lane-shuffle constants for NTT stages whose butterfly span t is
 * below the 8-lane vector width: a 16-element window is deinterleaved
 * into the x vector (first butterfly halves) and y vector (second
 * halves), the per-block twiddles are broadcast to their lanes, and
 * the results are interleaved back.
 */
ARK_T512 inline void
smallStageWin512(size_t t, __m512i *idx_x, __m512i *idx_y,
                 __m512i *bcast, __m512i *back0, __m512i *back1)
{
    if (t == 4) {
        *idx_x = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
        *idx_y = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
        *bcast = _mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1);
        *back0 = *idx_x;
        *back1 = *idx_y;
    } else if (t == 2) {
        *idx_x = _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13);
        *idx_y = _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15);
        *bcast = _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
        *back0 = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
        *back1 = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    } else { // t == 1
        *idx_x = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
        *idx_y = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
        *bcast = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
        *back0 = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
        *back1 = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    }
}

/**
 * Exclusive modulus bound of the AVX-512 and AVX2 NTT bodies: their
 * approximate-Shoup butterfly lets lazy values reach 8q, so they need
 * 8q < 2^63 (the AVX2 variant's unbiased signed compares need the same
 * headroom). A wider limb runs the scalar transform, which stays exact
 * for any q < 2^62.
 */
constexpr u64 kVecNttMaxQ = 1ULL << 60;

// ---------------------------------------------------------------------------
// Lane arithmetic of the 8-lane kernels. Each AVX-512 schedule below is
// written once, as a template over a multiplier policy, the way ARK's
// NTTU runs one stage schedule whatever its modular multiplier does:
//
//   Shoup64  the AVX-512F datapath: the approximate 64-bit Shoup
//            product and barrett512. The lazy fold bound B is 4q, so
//            forward NTT values stay in [0, 8q) and inverse ones in
//            [0, 4q); the NTT needs q < 2^60 (kVecNttMaxQ) and runs
//            the scalar transform for anything wider.
//   Ifma52   exact 52-bit products in vpmadd52 ops (Boemer et al.,
//            "Intel HEXL: Accelerating Homomorphic Encryption with
//            Intel AVX512-IFMA52", 2021). Every multiplier input has to
//            stay below 2^52, so B is 2q (forward values in [0, 4q),
//            inverse ones in [0, 2q)) and q < 2^50; IfmaEntry hands
//            wider limbs to the Shoup64 instantiation.
//
// A policy supplies its broadcast constants (Mod, holding q and B),
// its twiddle form (Tw), the lazy Shoup product mulShoup (any input
// the schedules feed it, result in [0, B)), canon ([0, B) -> [0, q))
// and the canonical mulMod / mulAddMod of canonical operands. Every
// step is exact, and the closing canonicalization lands on the one
// value the scalar kernels return, so both policies are bit-identical
// to them.
//
// A function template carries one target attribute, so the schedules
// are compiled for avx512ifma and the Shoup64 instantiations are built
// with IFMA enabled too. They call only AVX-512F/DQ helpers;
// scripts/check_simd_isa.py fails if a vpmadd52 shows up in a function
// not named for the IFMA tier.
// ---------------------------------------------------------------------------

struct Shoup64
{
    struct Mod : Mod512
    {
        __m512i bound; ///< the lazy fold bound B = 4q
    };
    /** Twiddle w, its Shoup word ws = floor(w * 2^64 / q) and ws >> 32. */
    struct Tw
    {
        __m512i w, ws, ws_hi;
    };

    ARK_T512 static Mod
    load(const Modulus &m)
    {
        return {loadMod512(m), set1_512(m.twoQ() * 2)};
    }

    ARK_T512 static Tw
    twiddle(u64 w, u64 ws)
    {
        return {set1_512(w), set1_512(ws), set1_512(ws >> 32)};
    }

    /** Per-lane twiddles from already broadcast w / ws vectors. */
    ARK_T512 static Tw
    twiddleLanes(__m512i w, __m512i ws)
    {
        return {w, ws, _mm512_srli_epi64(ws, 32)};
    }

    /** x * w mod q in [0, 4q) for any 64-bit x. */
    ARK_T512 static __m512i
    mulShoup(__m512i x, const Tw &tw, const Mod &md)
    {
        return mulShoupApprox512(x, tw.w, tw.ws, tw.ws_hi, md.q);
    }

    ARK_T512 static __m512i
    canon(__m512i v, const Mod &md)
    {
        return csub512(csub512(v, md.two_q), md.q);
    }

    /** Modulus::mul lane-wise: full 128-bit product, then barrett512. */
    ARK_T512 static __m512i
    mulMod(__m512i a, __m512i b, const Mod &md)
    {
        __m512i lo, hi;
        mul64_512(a, b, _mm512_srli_epi64(b, 32), md.m32, &lo, &hi);
        return barrett512(lo, hi, md);
    }

    /** m.add(acc, m.mul(a, b)) lane-wise, for canonical operands. */
    ARK_T512 static __m512i
    mulAddMod(__m512i a, __m512i b, __m512i acc, const Mod &md)
    {
        return csub512(_mm512_add_epi64(acc, mulMod(a, b, md)), md.q);
    }
};

struct Ifma52
{
    /** Exclusive modulus bound: 4q < 2^52. */
    static constexpr u64 kMaxQ = 1ULL << 50;

    /** mulMod's Barrett constants ride along: with L = bits(q),
     *  c1 = floor(ab / 2^(L-2)) is below 2^(L+2) <= 2^52 and
     *  k = floor(2^(L+50) / q) below 2^51. */
    struct Mod
    {
        __m512i q, two_q;
        __m512i bound; ///< the lazy fold bound B = 2q
        __m512i neg_q; ///< 2^52 - q
        __m512i mask;  ///< 2^52 - 1
        __m128i shift_lo, shift_hi; ///< L - 2 and 52 - (L - 2)
        __m512i k;
    };
    /** Twiddle w and its 52-bit Shoup word floor(w * 2^52 / q), which is
     *  the stored 64-bit one >> 12, so no twiddle table is added. */
    struct Tw
    {
        __m512i w, w52;
    };

    ARK_TIFMA static Mod
    load(const Modulus &m)
    {
        const int bits = m.bits();
        const __m512i two_q = set1_512(m.twoQ());
        return {set1_512(m.value()),
                two_q,
                two_q,
                set1_512((1ULL << 52) - m.value()),
                set1_512((1ULL << 52) - 1),
                _mm_cvtsi64_si128(bits - 2),
                _mm_cvtsi64_si128(54 - bits),
                set1_512(static_cast<u64>(
                    (static_cast<u128>(1) << (bits + 50)) / m.value()))};
    }

    ARK_TIFMA static Tw
    twiddle(u64 w, u64 ws)
    {
        return {set1_512(w), set1_512(ws >> 12)};
    }

    ARK_TIFMA static Tw
    twiddleLanes(__m512i w, __m512i ws)
    {
        return {w, _mm512_srli_epi64(ws, 12)};
    }

    /**
     * Shoup product x * w mod q in [0, 2q) for x < 2^52: the quotient
     * Q = floor(x * w52 / 2^52) undershoots floor(x * w / q) by at most
     * one, so x * w - Q * q lies in [0, 2q) < 2^52 and its low 52 bits,
     * x * w + Q * (2^52 - q) mod 2^52, are the whole value.
     */
    ARK_TIFMA static __m512i
    mulShoup(__m512i x, const Tw &tw, const Mod &md)
    {
        const __m512i zero = _mm512_setzero_si512();
        const __m512i quot = _mm512_madd52hi_epu64(zero, x, tw.w52);
        const __m512i xw = _mm512_madd52lo_epu64(zero, x, tw.w);
        return _mm512_and_si512(_mm512_madd52lo_epu64(xw, quot, md.neg_q),
                                md.mask);
    }

    ARK_TIFMA static __m512i
    canon(__m512i v, const Mod &md)
    {
        return csub512(v, md.q);
    }

    /**
     * a * b mod q in [0, 3q) for a, b < q < 2^50. The quotient
     * floor(c1 * k / 2^52) never overshoots ab / q and undershoots it
     * by less than 2.5 (c1 and k each lose under one unit; the losses
     * weigh ab / 2^(L+50) < 1 and 2^(L-2) / q <= 1/2), so the remainder
     * lies in [0, 3q) < 2^52 and its low 52 bits are the whole value.
     */
    ARK_TIFMA static __m512i
    mulModLazy(__m512i a, __m512i b, const Mod &md)
    {
        const __m512i zero = _mm512_setzero_si512();
        const __m512i lo = _mm512_madd52lo_epu64(zero, a, b);
        const __m512i hi = _mm512_madd52hi_epu64(zero, a, b);
        const __m512i c1 =
            _mm512_or_si512(_mm512_srl_epi64(lo, md.shift_lo),
                            _mm512_sll_epi64(hi, md.shift_hi));
        const __m512i quot = _mm512_madd52hi_epu64(zero, c1, md.k);
        return _mm512_and_si512(_mm512_madd52lo_epu64(lo, quot, md.neg_q),
                                md.mask);
    }

    ARK_TIFMA static __m512i
    mulMod(__m512i a, __m512i b, const Mod &md)
    {
        return csub512(csub512(mulModLazy(a, b, md), md.two_q), md.q);
    }

    /** acc + [0, 3q) < 4q, so two folds reach the canonical residue. */
    ARK_TIFMA static __m512i
    mulAddMod(__m512i a, __m512i b, __m512i acc, const Mod &md)
    {
        const __m512i t = _mm512_add_epi64(acc, mulModLazy(a, b, md));
        return csub512(csub512(t, md.two_q), md.q);
    }
};

/** Harvey forward butterfly on [0, 2B): x folded below B, plus and
 *  minus (+ B) the Shoup product w * y. */
template <class P>
ARK_TIFMA inline void
fwdBfly(__m512i *x, __m512i *y, const typename P::Tw &tw,
        const typename P::Mod &md)
{
    const __m512i u = csub512(*x, md.bound);
    const __m512i v = P::mulShoup(*y, tw, md);
    *x = _mm512_add_epi64(u, v);
    *y = _mm512_sub_epi64(_mm512_add_epi64(u, md.bound), v);
}

/** Gentleman-Sande butterfly on [0, B): x + y folded below B, and the
 *  Shoup product of w with x - y + B (below 2B). */
template <class P>
ARK_TIFMA inline void
invBfly(__m512i *x, __m512i *y, const typename P::Tw &tw,
        const typename P::Mod &md)
{
    const __m512i d = _mm512_sub_epi64(_mm512_add_epi64(*x, md.bound), *y);
    *x = csub512(_mm512_add_epi64(*x, *y), md.bound);
    *y = P::mulShoup(d, tw, md);
}

/** Twiddles of one register-window stage: @p blocks table entries from
 *  @p off, each broadcast to its butterfly lanes by @p bcast. The
 *  masked loads never read past the table's live block range. */
template <class P>
ARK_TIFMA inline typename P::Tw
windowTwiddles(const u64 *w, const u64 *ws, size_t off, size_t blocks,
               __m512i bcast)
{
    const __mmask8 lmask = static_cast<__mmask8>((1u << blocks) - 1);
    return P::twiddleLanes(
        _mm512_permutexvar_epi64(bcast,
                                 _mm512_maskz_loadu_epi64(lmask, w + off)),
        _mm512_permutexvar_epi64(bcast,
                                 _mm512_maskz_loadu_epi64(lmask, ws + off)));
}

// ---------------------------------------------------------------------------
// AVX-512 NTT: the Harvey lazy transform of NttTables::forward /
// inverse, eight butterflies per step, on the policy's lazy domain.
// The closing canonicalization brings every lane back to [0, q), so
// outputs are bit-identical to the scalar transforms.
// ---------------------------------------------------------------------------

template <class P>
ARK_TIFMA void
nttForwardAvx512(u64 *a, const NttTables &tb)
{
    using Tw = typename P::Tw;
    const size_t n = tb.degree();
    if (n < 16 || tb.modulus().value() >= kVecNttMaxQ) {
        tb.forward(a);
        return;
    }
    const u64 *w = tb.rootPowers().data();
    const u64 *ws = tb.rootPowersShoup().data();
    const typename P::Mod md = P::load(tb.modulus());

    size_t t = n >> 1;
    size_t m = 1;
    // Fused stage pairs: two butterfly levels per pass over the data,
    // which halves the memory traffic of the big stages and doubles
    // the independent work in flight (the Shoup product chain is long,
    // so the extra ILP matters as much as the bandwidth). The [0, 2B)
    // invariant needs only a single fold on the additive side, so
    // level-1 outputs land back below 2B and level 2 repeats the
    // identical step. Block i of the first level splits into blocks
    // 2i / 2i+1 of the second, hence the three twiddles.
    for (; t >= 16; m <<= 2, t >>= 2) {
        const size_t ht = t >> 1;
        for (size_t i = 0; i < m; ++i) {
            const Tw t1 = P::twiddle(w[m + i], ws[m + i]);
            const Tw t2a = P::twiddle(w[2 * m + 2 * i], ws[2 * m + 2 * i]);
            const Tw t2b =
                P::twiddle(w[2 * m + 2 * i + 1], ws[2 * m + 2 * i + 1]);
            u64 *x = a + 2 * i * t;
            u64 *y = x + t;
            for (size_t j = 0; j < ht; j += 8) {
                __m512i x0 = load512(x + j), x1 = load512(x + ht + j);
                __m512i y0 = load512(y + j), y1 = load512(y + ht + j);
                fwdBfly<P>(&x0, &y0, t1, md);
                fwdBfly<P>(&x1, &y1, t1, md);
                fwdBfly<P>(&x0, &x1, t2a, md);
                fwdBfly<P>(&y0, &y1, t2b, md);
                store512(x + j, x0);
                store512(x + ht + j, x1);
                store512(y + j, y0);
                store512(y + ht + j, y1);
            }
        }
    }
    // Epilogue: every remaining stage (t = 8 when the pair loop left
    // an odd one, then t = 4, 2, 1) runs on a 16-element window that
    // stays in registers, so the tail of the transform costs a single
    // pass over the data. The t = 1 step canonicalizes its outputs
    // in-register, replacing the scalar kernel's separate reduceLazy4q
    // sweep. The entry guard keeps n >= 16 here.
    const size_t t_hi = t; // 8 or 4
    __m512i idx_x[3], idx_y[3], bcast[3], back0[3], back1[3];
    for (size_t s = 0, tt = 4; tt >= 1; tt >>= 1, ++s)
        smallStageWin512(tt, &idx_x[s], &idx_y[s], &bcast[s], &back0[s],
                         &back1[s]);
    for (size_t base = 0, win = 0; base < n; base += 16, ++win) {
        __m512i v0 = load512(a + base);
        __m512i v1 = load512(a + base + 8);
        size_t mm = m;
        if (t_hi == 8) {
            fwdBfly<P>(&v0, &v1, P::twiddle(w[mm + win], ws[mm + win]), md);
            mm <<= 1;
        }
        for (size_t s = 0, tt = 4; tt >= 1; tt >>= 1, ++s, mm <<= 1) {
            const size_t blocks = 8 / tt;
            __m512i x = _mm512_permutex2var_epi64(v0, idx_x[s], v1);
            __m512i y = _mm512_permutex2var_epi64(v0, idx_y[s], v1);
            fwdBfly<P>(&x, &y,
                       windowTwiddles<P>(w, ws, mm + win * blocks, blocks,
                                         bcast[s]),
                       md);
            if (tt == 1) {
                x = P::canon(csub512(x, md.bound), md);
                y = P::canon(csub512(y, md.bound), md);
            }
            v0 = _mm512_permutex2var_epi64(x, back0[s], y);
            v1 = _mm512_permutex2var_epi64(x, back1[s], y);
        }
        store512(a + base, v0);
        store512(a + base + 8, v1);
    }
}

template <class P>
ARK_TIFMA void
nttInverseAvx512(u64 *a, const NttTables &tb)
{
    using Tw = typename P::Tw;
    const size_t n = tb.degree();
    if (n < 16 || tb.modulus().value() >= kVecNttMaxQ) {
        tb.inverse(a);
        return;
    }
    const u64 *iw = tb.invRootPowers().data();
    const u64 *iws = tb.invRootPowersShoup().data();
    const typename P::Mod md = P::load(tb.modulus());

    // Prologue: the sub-vector stages (Gentleman-Sande runs t upward)
    // plus the first whole-vector stage (t = 8) run fused on
    // 16-element windows, a single pass over the data. Values stay in
    // [0, B): sums fold once from [0, 2B), differences feed the Shoup
    // product, whose result is back in [0, B). The entry guard keeps
    // n >= 16 here.
    {
        __m512i idx_x[3], idx_y[3], bcast[3], back0[3], back1[3];
        for (size_t s = 0, tt = 1; tt <= 4; tt <<= 1, ++s)
            smallStageWin512(tt, &idx_x[s], &idx_y[s], &bcast[s],
                             &back0[s], &back1[s]);
        const size_t h8 = n >> 4;
        for (size_t base = 0, win = 0; base < n; base += 16, ++win) {
            __m512i v0 = load512(a + base);
            __m512i v1 = load512(a + base + 8);
            size_t hh = n >> 1;
            for (size_t s = 0, tt = 1; tt <= 4; tt <<= 1, ++s, hh >>= 1) {
                const size_t blocks = 8 / tt;
                __m512i x = _mm512_permutex2var_epi64(v0, idx_x[s], v1);
                __m512i y = _mm512_permutex2var_epi64(v0, idx_y[s], v1);
                invBfly<P>(&x, &y,
                           windowTwiddles<P>(iw, iws, hh + win * blocks,
                                             blocks, bcast[s]),
                           md);
                v0 = _mm512_permutex2var_epi64(x, back0[s], y);
                v1 = _mm512_permutex2var_epi64(x, back1[s], y);
            }
            // t = 8: one butterfly across the two window vectors.
            invBfly<P>(&v0, &v1, P::twiddle(iw[h8 + win], iws[h8 + win]),
                       md);
            store512(a + base, v0);
            store512(a + base + 8, v1);
        }
    }
    size_t t = 16;
    // Fused stage pairs (t, 2t): stage-t blocks 2i / 2i+1 feed stage-2t
    // block i, so a radix-4 group of four vectors turns over in
    // registers and the pass count over the array halves. Every value
    // stays in [0, B) exactly as in the unfused stages.
    for (; t <= n >> 2; t <<= 2) {
        const size_t h = n / (2 * t);
        const size_t h2 = h >> 1;
        for (size_t i = 0; i < h2; ++i) {
            const Tw ta = P::twiddle(iw[h + 2 * i], iws[h + 2 * i]);
            const Tw tb2 = P::twiddle(iw[h + 2 * i + 1], iws[h + 2 * i + 1]);
            const Tw tc = P::twiddle(iw[h2 + i], iws[h2 + i]);
            u64 *p = a + 4 * i * t;
            for (size_t j = 0; j < t; j += 8) {
                __m512i p0 = load512(p + j), p1 = load512(p + t + j);
                __m512i p2 = load512(p + 2 * t + j);
                __m512i p3 = load512(p + 3 * t + j);
                invBfly<P>(&p0, &p1, ta, md);
                invBfly<P>(&p2, &p3, tb2, md);
                invBfly<P>(&p0, &p2, tc, md);
                invBfly<P>(&p1, &p3, tc, md);
                store512(p + j, p0);
                store512(p + t + j, p1);
                store512(p + 2 * t + j, p2);
                store512(p + 3 * t + j, p3);
            }
        }
    }
    // Leftover single stage (t == n/2) when the main-stage count is
    // odd.
    for (; t <= n >> 1; t <<= 1) {
        const size_t h = n / (2 * t);
        for (size_t i = 0; i < h; ++i) {
            const Tw tw = P::twiddle(iw[h + i], iws[h + i]);
            u64 *x = a + 2 * i * t;
            u64 *y = x + t;
            for (size_t j = 0; j < t; j += 8) {
                __m512i xv = load512(x + j), yv = load512(y + j);
                invBfly<P>(&xv, &yv, tw, md);
                store512(x + j, xv);
                store512(y + j, yv);
            }
        }
    }
    // 1/N Shoup scaling pass canonicalizes [0, B) -> [0, q).
    const Tw ni = P::twiddle(tb.nInv(), tb.nInvShoup());
    for (size_t j = 0; j < n; j += 8)
        store512(a + j, P::canon(P::mulShoup(load512(a + j), ni, md), md));
}

// ---------------------------------------------------------------------------
// AVX-512 fused BConv tile: the convertTile contract with limb-major
// scratch (scratch[j * tile + c]) so lanes run across coefficients and
// no transpose is needed. Each coefficient's MAC accumulates in the
// same j order as the scalar kernel; regrouping an exact 128-bit sum
// is exact, so outputs are bit-identical.
// ---------------------------------------------------------------------------

ARK_T512 void
bconvTileAvx512(const BaseConverter &bc, const RnsPoly &in, size_t c0,
                size_t c1, u64 *scratch, RnsPoly &out)
{
    const size_t nb = bc.inBase().size();
    const size_t nc = bc.outBase().size();
    const size_t tile = c1 - c0;
    const __m512i m32 = set1_512(0xffffffffULL);
    const __m512i one = _mm512_set1_epi64(1);

    // Scale stage: strict Shoup product per lane (lazy + csub q).
    for (size_t j = 0; j < nb; ++j) {
        const Modulus &pj = bc.inBase()[j];
        const u64 s = bc.phatInvModP(j);
        const u64 ss = bc.phatInvModPShoup(j);
        const u64 *src = in.limb(j) + c0;
        u64 *dst = scratch + j * tile;
        const __m512i q = set1_512(pj.value());
        const __m512i q_hi = set1_512(pj.value() >> 32);
        const __m512i vs = set1_512(s), vs_hi = set1_512(s >> 32);
        const __m512i vss = set1_512(ss), vss_hi = set1_512(ss >> 32);
        size_t c = 0;
        for (; c + 8 <= tile; c += 8) {
            const __m512i r = mulShoupLazy512(load512(src + c), vs,
                                              vs_hi, vss, vss_hi, q,
                                              q_hi, m32);
            store512(dst + c, csub512(r, q));
        }
        for (; c < tile; ++c)
            dst[c] = pj.mulShoup(src[c], s, ss);
    }

    // MAC stage: 128-bit accumulation per lane as (lo, hi) vector
    // pairs with explicit carry counting, then the Barrett reduce.
    for (size_t i = 0; i < nc; ++i) {
        const Modulus &qi = bc.outBase()[i];
        const Mod512 md = loadMod512(qi);
        u64 *dst = out.limb(i) + c0;
        size_t c = 0;
        for (; c + 8 <= tile; c += 8) {
            __m512i acc_lo = _mm512_setzero_si512();
            __m512i acc_hi = _mm512_setzero_si512();
            for (size_t j = 0; j < nb; ++j) {
                const u64 rj = bc.baseTable(i, j);
                const __m512i r = set1_512(rj);
                const __m512i r_hi = set1_512(rj >> 32);
                __m512i p_lo, p_hi;
                mul64_512(load512(scratch + j * tile + c), r, r_hi, m32,
                          &p_lo, &p_hi);
                acc_lo = _mm512_add_epi64(acc_lo, p_lo);
                const __mmask8 carry =
                    _mm512_cmplt_epu64_mask(acc_lo, p_lo);
                acc_hi = _mm512_add_epi64(acc_hi, p_hi);
                acc_hi = _mm512_mask_add_epi64(acc_hi, carry, acc_hi, one);
            }
            store512(dst + c, barrett512(acc_lo, acc_hi, md));
        }
        for (; c < tile; ++c) {
            u128 acc = 0;
            for (size_t j = 0; j < nb; ++j)
                acc += static_cast<u128>(scratch[j * tile + c]) *
                       bc.baseTable(i, j);
            dst[c] = qi.reduce(acc);
        }
    }
}

// ---------------------------------------------------------------------------
// 8-lane element-wise kernels over a policy: the evk MAC (the
// KernelBackend::evkMulAcc inner loop), the pointwise product, the MAC
// and the Shoup product with a per-limb constant, whose lazy result the
// policy folds to the canonical residue, the one value
// Modulus::mulShoup returns too. add and sub are addMod / subMod
// lane-wise and take no product, so they have one AVX-512 body each.
// Words that do not fill a vector run the scalar loop.
// ---------------------------------------------------------------------------

template <class P>
ARK_TIFMA void
evkMacLimbAvx512(const Modulus &m, const u64 *pd, const u64 *kb,
                 const u64 *ka, u64 *ab, u64 *aa, size_t n)
{
    const typename P::Mod md = P::load(m);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i d = load512(pd + i);
        store512(ab + i,
                 P::mulAddMod(d, load512(kb + i), load512(ab + i), md));
        store512(aa + i,
                 P::mulAddMod(d, load512(ka + i), load512(aa + i), md));
    }
    evkMacLimbScalar(m, pd + i, kb + i, ka + i, ab + i, aa + i, n - i);
}

template <class P>
ARK_TIFMA void
mulEvalLimbAvx512(const Modulus &m, const u64 *a, const u64 *b, u64 *r,
                  size_t n)
{
    const typename P::Mod md = P::load(m);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        store512(r + i, P::mulMod(load512(a + i), load512(b + i), md));
    mulEvalLimbScalar(m, a + i, b + i, r + i, n - i);
}

template <class P>
ARK_TIFMA void
mulAccLimbAvx512(const Modulus &m, const u64 *a, const u64 *b, u64 *r,
                 size_t n)
{
    const typename P::Mod md = P::load(m);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        store512(r + i, P::mulAddMod(load512(a + i), load512(b + i),
                                     load512(r + i), md));
    mulAccLimbScalar(m, a + i, b + i, r + i, n - i);
}

ARK_T512 void
addLimbAvx512(const Modulus &m, const u64 *a, const u64 *b, u64 *r,
              size_t n)
{
    const __m512i q = set1_512(m.value());
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        store512(r + i, csub512(_mm512_add_epi64(load512(a + i),
                                                 load512(b + i)),
                                q));
    addLimbScalar(m, a + i, b + i, r + i, n - i);
}

/** subMod lane-wise: a - b, plus q where a < b. */
ARK_T512 inline __m512i
subMod512(__m512i a, __m512i b, __m512i q)
{
    const __m512i d = _mm512_sub_epi64(a, b);
    return _mm512_mask_add_epi64(d, _mm512_cmplt_epu64_mask(a, b), d, q);
}

ARK_T512 void
subLimbAvx512(const Modulus &m, const u64 *a, const u64 *b, u64 *r,
              size_t n)
{
    const __m512i q = set1_512(m.value());
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        store512(r + i, subMod512(load512(a + i), load512(b + i), q));
    subLimbScalar(m, a + i, b + i, r + i, n - i);
}

template <class P>
ARK_TIFMA void
mulScalarLimbAvx512(const Modulus &m, const u64 *a, const u64 *b, u64 s,
                    u64 *r, size_t n)
{
    const typename P::Mod md = P::load(m);
    const typename P::Tw tw = P::twiddle(s, m.shoupPrecompute(s));
    size_t i = 0;
    if (b == nullptr) {
        for (; i + 8 <= n; i += 8)
            store512(r + i,
                     P::canon(P::mulShoup(load512(a + i), tw, md), md));
    } else {
        for (; i + 8 <= n; i += 8) {
            const __m512i x = subMod512(load512(a + i), load512(b + i), md.q);
            store512(r + i, P::canon(P::mulShoup(x, tw, md), md));
        }
    }
    mulScalarLimbScalar(m, a + i, b == nullptr ? nullptr : b + i, s, r + i,
                        n - i);
}

// ---------------------------------------------------------------------------
// AVX-512 limb embedding and plaintext MAC (KernelBackend::plainMulSum).
// The embed mirrors Modulus::reduceWord (one-word Barrett quotient, one
// conditional subtract) and the centered fix-up; the MAC keeps the
// 128-bit accumulators as (lo, hi) rows with bconvTileAvx512's carry
// idiom, and the reduce is barrett512.
// ---------------------------------------------------------------------------

ARK_T512 void
limbEmbedAvx512(const u64 *src, size_t n, u64 src_q, const Modulus &m,
                u64 *dst)
{
    const Mod512 md = loadMod512(m);
    const u64 half = src_q / 2;
    const u64 q0_mod = m.reduceWord(src_q);
    const __m512i vhalf = set1_512(half);
    const __m512i vq0 = set1_512(q0_mod);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i v = load512(src + i);
        const __m512i quot = mulhi64_512(v, md.b_hi, md.b_hi_hi, md.m32);
        __m512i r = _mm512_sub_epi64(v, mullo64_512(quot, md.q, md.q_hi));
        r = csub512(r, md.q);
        // Negative centered residue: r - q0_mod mod q.
        const __mmask8 neg = _mm512_cmpgt_epu64_mask(v, vhalf);
        const __mmask8 borrow = _mm512_cmplt_epu64_mask(r, vq0);
        __m512i t = _mm512_sub_epi64(r, vq0);
        t = _mm512_mask_add_epi64(t, borrow, t, md.q);
        store512(dst + i, _mm512_mask_mov_epi64(r, neg, t));
    }
    limbEmbedScalar(src + i, n - i, src_q, m, dst + i);
}

/** acc_lo:acc_hi += x * y per lane (bconvTileAvx512's carry idiom). */
ARK_T512 inline void
mac512(__m512i x, __m512i y, __m512i m32, u64 *lo, u64 *hi)
{
    __m512i p_lo, p_hi;
    mul64_512(x, y, _mm512_srli_epi64(y, 32), m32, &p_lo, &p_hi);
    const __m512i acc_lo = _mm512_add_epi64(load512(lo), p_lo);
    const __mmask8 carry = _mm512_cmplt_epu64_mask(acc_lo, p_lo);
    __m512i acc_hi = _mm512_add_epi64(load512(hi), p_hi);
    acc_hi = _mm512_mask_add_epi64(acc_hi, carry, acc_hi,
                                   _mm512_set1_epi64(1));
    store512(lo, acc_lo);
    store512(hi, acc_hi);
}

ARK_T512 void
plainMacLimbAvx512(const u64 *pt, const u64 *b, const u64 *a, u64 *acc,
                   size_t n)
{
    const __m512i m32 = set1_512(0xffffffffULL);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i p = load512(pt + i);
        mac512(load512(b + i), p, m32, acc + i, acc + n + i);
        mac512(load512(a + i), p, m32, acc + 2 * n + i, acc + 3 * n + i);
    }
    for (; i < n; ++i) {
        const u128 sb = ((static_cast<u128>(acc[n + i]) << 64) | acc[i]) +
                        static_cast<u128>(pt[i]) * b[i];
        const u128 sa =
            ((static_cast<u128>(acc[3 * n + i]) << 64) | acc[2 * n + i]) +
            static_cast<u128>(pt[i]) * a[i];
        acc[i] = static_cast<u64>(sb);
        acc[n + i] = static_cast<u64>(sb >> 64);
        acc[2 * n + i] = static_cast<u64>(sa);
        acc[3 * n + i] = static_cast<u64>(sa >> 64);
    }
}

ARK_T512 void
plainReduceLimbAvx512(const Modulus &m, const u64 *acc, size_t n,
                      u64 *out_b, u64 *out_a)
{
    const Mod512 md = loadMod512(m);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        store512(out_b + i,
                 barrett512(load512(acc + i), load512(acc + n + i), md));
        store512(out_a + i, barrett512(load512(acc + 2 * n + i),
                                       load512(acc + 3 * n + i), md));
    }
    for (; i < n; ++i) {
        out_b[i] = m.reduce((static_cast<u128>(acc[n + i]) << 64) | acc[i]);
        out_a[i] = m.reduce((static_cast<u128>(acc[3 * n + i]) << 64) |
                            acc[2 * n + i]);
    }
}

// ---------------------------------------------------------------------------
// The IFMA table's entries: Ifma52's products are exact only for
// q < 2^50, so a wider limb runs the Shoup64 instantiation of the same
// kernel. This is the tier's one hand-off.
// ---------------------------------------------------------------------------

/** The modulus a kernel call works in: the NTT table's, or the first
 *  argument of an element-wise kernel. */
inline const Modulus &
limbModulus(u64 *, const NttTables &tb)
{
    return tb.modulus();
}

template <class... A>
inline const Modulus &
limbModulus(const Modulus &m, const A &...)
{
    return m;
}

/** run() calls @p Ifma on a limb with q < 2^50 and @p Wide on any
 *  other; both are instantiations of one kernel, so they share its
 *  signature A. */
template <auto Ifma, auto Wide>
struct IfmaEntry;

template <class... A, void (*Ifma)(A...), void (*Wide)(A...)>
struct IfmaEntry<Ifma, Wide>
{
    ARK_TIFMA static void
    run(A... a)
    {
        if (limbModulus(a...).value() < Ifma52::kMaxQ)
            Ifma(a...);
        else
            Wide(a...);
    }
};

// ---------------------------------------------------------------------------
// AVX2 helpers: 4 lanes of u64. No unsigned 64-bit compare below
// AVX-512, so comparisons run signed after XOR-ing the sign bit in.
// ---------------------------------------------------------------------------

ARK_T256 inline __m256i
set1_256(u64 v)
{
    return _mm256_set1_epi64x(static_cast<long long>(v));
}

ARK_T256 inline __m256i
load256(const u64 *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

ARK_T256 inline void
store256(u64 *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

/** a < b (unsigned) per lane, as an all-ones/all-zeros mask. */
ARK_T256 inline __m256i
cmpltu256(__m256i a, __m256i b, __m256i bias)
{
    return _mm256_cmpgt_epi64(_mm256_xor_si256(b, bias),
                              _mm256_xor_si256(a, bias));
}

/** Conditional-subtract bound: the bound vector plus its biased
 *  (bound - 1) companion for the signed compare. */
struct Bound256
{
    __m256i bound;
    __m256i biased_m1;
};

ARK_T256 inline Bound256
makeBound256(u64 bound)
{
    Bound256 b;
    b.bound = set1_256(bound);
    b.biased_m1 = set1_256((bound - 1) ^ 0x8000000000000000ULL);
    return b;
}

/** v >= bound ? v - bound : v (unsigned), lane-wise. */
ARK_T256 inline __m256i
csub256(__m256i v, const Bound256 &b, __m256i bias)
{
    const __m256i ge =
        _mm256_cmpgt_epi64(_mm256_xor_si256(v, bias), b.biased_m1);
    return _mm256_sub_epi64(v, _mm256_and_si256(ge, b.bound));
}

ARK_T256 inline __m256i
mullo64_256(__m256i x, __m256i c, __m256i c_hi)
{
    const __m256i x_hi = _mm256_srli_epi64(x, 32);
    const __m256i ll = _mm256_mul_epu32(x, c);
    const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(x_hi, c),
                                           _mm256_mul_epu32(x, c_hi));
    return _mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32));
}

ARK_T256 inline __m256i
mulhi64_256(__m256i x, __m256i c, __m256i c_hi, __m256i m32)
{
    const __m256i x_hi = _mm256_srli_epi64(x, 32);
    const __m256i ll = _mm256_mul_epu32(x, c);
    const __m256i lh = _mm256_mul_epu32(x, c_hi);
    const __m256i hl = _mm256_mul_epu32(x_hi, c);
    const __m256i hh = _mm256_mul_epu32(x_hi, c_hi);
    const __m256i mid = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                         _mm256_and_si256(lh, m32)),
        _mm256_and_si256(hl, m32));
    return _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(hl, 32),
                         _mm256_srli_epi64(mid, 32)));
}

ARK_T256 inline void
mul64_256(__m256i x, __m256i c, __m256i c_hi, __m256i m32, __m256i *lo,
          __m256i *hi)
{
    const __m256i x_hi = _mm256_srli_epi64(x, 32);
    const __m256i ll = _mm256_mul_epu32(x, c);
    const __m256i lh = _mm256_mul_epu32(x, c_hi);
    const __m256i hl = _mm256_mul_epu32(x_hi, c);
    const __m256i hh = _mm256_mul_epu32(x_hi, c_hi);
    const __m256i mid = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                         _mm256_and_si256(lh, m32)),
        _mm256_and_si256(hl, m32));
    *lo = _mm256_or_si256(_mm256_slli_epi64(mid, 32),
                          _mm256_and_si256(ll, m32));
    *hi = _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(hl, 32),
                         _mm256_srli_epi64(mid, 32)));
}

/** The approximate-quotient Shoup product (see mulShoupApprox512):
 *  result in [0, 4q) per lane. */
ARK_T256 inline __m256i
mulShoupApprox256(__m256i x, __m256i w, __m256i w_hi, __m256i ws,
                  __m256i ws_hi, __m256i q, __m256i q_hi)
{
    const __m256i x_hi = _mm256_srli_epi64(x, 32);
    const __m256i lh = _mm256_mul_epu32(x, ws_hi);
    const __m256i hl = _mm256_mul_epu32(x_hi, ws);
    const __m256i hh = _mm256_mul_epu32(x_hi, ws_hi);
    const __m256i q_est = _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
        _mm256_srli_epi64(hl, 32));
    return _mm256_sub_epi64(mullo64_256(x, w, w_hi),
                            mullo64_256(q_est, q, q_hi));
}

/** Conditional-subtract for the NTT kernels only: the q < 2^60 kernel
 *  guard keeps every lazy value under 8q < 2^63, so the sign bit is
 *  never set and the plain signed compare needs no bias XOR. */
struct SBound256
{
    __m256i b;
    __m256i b_m1;
};

ARK_T256 inline SBound256
makeSBound256(u64 bound)
{
    SBound256 s;
    s.b = set1_256(bound);
    s.b_m1 = set1_256(bound - 1);
    return s;
}

ARK_T256 inline __m256i
csubs256(__m256i v, const SBound256 &b)
{
    return _mm256_sub_epi64(
        v, _mm256_and_si256(_mm256_cmpgt_epi64(v, b.b_m1), b.b));
}

struct Mod256
{
    __m256i q, q_hi;
    __m256i b_lo, b_lo_hi, b_hi, b_hi_hi;
    __m256i m32, bias;
    Bound256 bq, b2q;
};

ARK_T256 inline Mod256
loadMod256(const Modulus &m)
{
    Mod256 md;
    md.q = set1_256(m.value());
    md.q_hi = set1_256(m.value() >> 32);
    md.b_lo = set1_256(m.barrettLo());
    md.b_lo_hi = set1_256(m.barrettLo() >> 32);
    md.b_hi = set1_256(m.barrettHi());
    md.b_hi_hi = set1_256(m.barrettHi() >> 32);
    md.m32 = set1_256(0xffffffffULL);
    md.bias = set1_256(0x8000000000000000ULL);
    md.bq = makeBound256(m.value());
    md.b2q = makeBound256(m.twoQ());
    return md;
}

ARK_T256 inline __m256i
barrett256(__m256i x_lo, __m256i x_hi, const Mod256 &md)
{
    const __m256i lolo_hi = mulhi64_256(x_lo, md.b_lo, md.b_lo_hi, md.m32);
    __m256i lohi_lo, lohi_hi;
    mul64_256(x_lo, md.b_hi, md.b_hi_hi, md.m32, &lohi_lo, &lohi_hi);
    __m256i hilo_lo, hilo_hi;
    mul64_256(x_hi, md.b_lo, md.b_lo_hi, md.m32, &hilo_lo, &hilo_hi);
    const __m256i hihi_lo = mullo64_256(x_hi, md.b_hi, md.b_hi_hi);

    // Subtracting an all-ones compare mask adds 1 per carrying lane.
    const __m256i mid = _mm256_add_epi64(lolo_hi, lohi_lo);
    __m256i mid_hi = _mm256_sub_epi64(_mm256_setzero_si256(),
                                      cmpltu256(mid, lohi_lo, md.bias));
    const __m256i mid2 = _mm256_add_epi64(mid, hilo_lo);
    mid_hi =
        _mm256_sub_epi64(mid_hi, cmpltu256(mid2, hilo_lo, md.bias));

    const __m256i q_est =
        _mm256_add_epi64(_mm256_add_epi64(hihi_lo, lohi_hi),
                         _mm256_add_epi64(hilo_hi, mid_hi));
    __m256i r =
        _mm256_sub_epi64(x_lo, mullo64_256(q_est, md.q, md.q_hi));
    r = csub256(r, md.b2q, md.bias);
    return csub256(r, md.bq, md.bias);
}

// ---------------------------------------------------------------------------
// AVX2 NTT. Main stages handle t >= 4; the t = 2 and t = 1 stages run
// on 8-element windows, deinterleaved with permute2x128 / unpack.
// ---------------------------------------------------------------------------

ARK_T256 void
nttForwardAvx2(u64 *a, const NttTables &tb)
{
    const size_t n = tb.degree();
    if (n < 8 || tb.modulus().value() >= kVecNttMaxQ) {
        tb.forward(a);
        return;
    }
    const Modulus &mod = tb.modulus();
    const u64 *w = tb.rootPowers().data();
    const u64 *ws = tb.rootPowersShoup().data();
    const __m256i q = set1_256(mod.value());
    const __m256i q_hi = set1_256(mod.value() >> 32);
    const SBound256 sq = makeSBound256(mod.value());
    const SBound256 s2q = makeSBound256(mod.twoQ());
    const SBound256 s4q = makeSBound256(mod.twoQ() * 2);
    const __m256i four_q = s4q.b;

    size_t t = n >> 1;
    size_t m = 1;
    for (; t >= 4; m <<= 1, t >>= 1) {
        for (size_t i = 0; i < m; ++i) {
            const u64 wi = w[m + i], wsi = ws[m + i];
            const __m256i vw = set1_256(wi), vw_hi = set1_256(wi >> 32);
            const __m256i vws = set1_256(wsi);
            const __m256i vws_hi = set1_256(wsi >> 32);
            u64 *x = a + 2 * i * t;
            u64 *y = x + t;
            for (size_t j = 0; j < t; j += 4) {
                const __m256i u = csubs256(load256(x + j), s4q);
                const __m256i v =
                    mulShoupApprox256(load256(y + j), vw, vw_hi, vws,
                                      vws_hi, q, q_hi);
                store256(x + j, _mm256_add_epi64(u, v));
                store256(y + j,
                         _mm256_sub_epi64(_mm256_add_epi64(u, four_q),
                                          v));
            }
        }
    }
    if (t == 2) {
        // Window {e0..e7}: x = {e0,e1,e4,e5}, y = {e2,e3,e6,e7}; the
        // two block twiddles broadcast pairwise.
        for (size_t base = 0, b = 0; base < n; base += 8, b += 2) {
            const __m256i v0 = load256(a + base);
            const __m256i v1 = load256(a + base + 4);
            const __m256i x = _mm256_permute2x128_si256(v0, v1, 0x20);
            const __m256i y = _mm256_permute2x128_si256(v0, v1, 0x31);
            const __m128i tw = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(w + m + b));
            const __m128i tws = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(ws + m + b));
            const __m256i vw = _mm256_permute4x64_epi64(
                _mm256_castsi128_si256(tw), 0x50);
            const __m256i vws = _mm256_permute4x64_epi64(
                _mm256_castsi128_si256(tws), 0x50);
            const __m256i u = csubs256(x, s4q);
            const __m256i v = mulShoupApprox256(
                y, vw, _mm256_srli_epi64(vw, 32), vws,
                _mm256_srli_epi64(vws, 32), q, q_hi);
            const __m256i nx = _mm256_add_epi64(u, v);
            const __m256i ny =
                _mm256_sub_epi64(_mm256_add_epi64(u, four_q), v);
            store256(a + base, _mm256_permute2x128_si256(nx, ny, 0x20));
            store256(a + base + 4,
                     _mm256_permute2x128_si256(nx, ny, 0x31));
        }
        m <<= 1;
        t = 1;
    }
    if (t == 1) {
        // Window {e0..e7}: unpack gives x = {e0,e4,e2,e6} (blocks
        // 0,2,1,3), so the twiddle vector is permuted to match. The
        // outputs canonicalize in-register (no separate sweep).
        for (size_t base = 0, b = 0; base < n; base += 8, b += 4) {
            const __m256i v0 = load256(a + base);
            const __m256i v1 = load256(a + base + 4);
            const __m256i x = _mm256_unpacklo_epi64(v0, v1);
            const __m256i y = _mm256_unpackhi_epi64(v0, v1);
            const __m256i vw =
                _mm256_permute4x64_epi64(load256(w + m + b), 0xD8);
            const __m256i vws =
                _mm256_permute4x64_epi64(load256(ws + m + b), 0xD8);
            const __m256i u = csubs256(x, s4q);
            const __m256i v = mulShoupApprox256(
                y, vw, _mm256_srli_epi64(vw, 32), vws,
                _mm256_srli_epi64(vws, 32), q, q_hi);
            __m256i nx = _mm256_add_epi64(u, v);
            __m256i ny =
                _mm256_sub_epi64(_mm256_add_epi64(u, four_q), v);
            nx = csubs256(csubs256(csubs256(nx, s4q), s2q), sq);
            ny = csubs256(csubs256(csubs256(ny, s4q), s2q), sq);
            store256(a + base, _mm256_unpacklo_epi64(nx, ny));
            store256(a + base + 4, _mm256_unpackhi_epi64(nx, ny));
        }
    }
}

ARK_T256 void
nttInverseAvx2(u64 *a, const NttTables &tb)
{
    const size_t n = tb.degree();
    if (n < 8 || tb.modulus().value() >= kVecNttMaxQ) {
        tb.inverse(a);
        return;
    }
    const Modulus &mod = tb.modulus();
    const u64 *iw = tb.invRootPowers().data();
    const u64 *iws = tb.invRootPowersShoup().data();
    const __m256i q = set1_256(mod.value());
    const __m256i q_hi = set1_256(mod.value() >> 32);
    const SBound256 sq = makeSBound256(mod.value());
    const SBound256 s2q = makeSBound256(mod.twoQ());
    const SBound256 s4q = makeSBound256(mod.twoQ() * 2);
    const __m256i four_q = s4q.b;

    // t = 1 stage: adjacent pairs, twiddles iw[n/2 + i].
    {
        const size_t h = n >> 1;
        for (size_t base = 0, b = 0; base < n; base += 8, b += 4) {
            const __m256i v0 = load256(a + base);
            const __m256i v1 = load256(a + base + 4);
            const __m256i x = _mm256_unpacklo_epi64(v0, v1);
            const __m256i y = _mm256_unpackhi_epi64(v0, v1);
            const __m256i vw =
                _mm256_permute4x64_epi64(load256(iw + h + b), 0xD8);
            const __m256i vws =
                _mm256_permute4x64_epi64(load256(iws + h + b), 0xD8);
            const __m256i s = csubs256(_mm256_add_epi64(x, y), s4q);
            const __m256i d =
                _mm256_sub_epi64(_mm256_add_epi64(x, four_q), y);
            const __m256i ny = mulShoupApprox256(
                d, vw, _mm256_srli_epi64(vw, 32), vws,
                _mm256_srli_epi64(vws, 32), q, q_hi);
            store256(a + base, _mm256_unpacklo_epi64(s, ny));
            store256(a + base + 4, _mm256_unpackhi_epi64(s, ny));
        }
    }
    // t = 2 stage.
    {
        const size_t h = n >> 2;
        for (size_t base = 0, b = 0; base < n; base += 8, b += 2) {
            const __m256i v0 = load256(a + base);
            const __m256i v1 = load256(a + base + 4);
            const __m256i x = _mm256_permute2x128_si256(v0, v1, 0x20);
            const __m256i y = _mm256_permute2x128_si256(v0, v1, 0x31);
            const __m128i tw = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(iw + h + b));
            const __m128i tws = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(iws + h + b));
            const __m256i vw = _mm256_permute4x64_epi64(
                _mm256_castsi128_si256(tw), 0x50);
            const __m256i vws = _mm256_permute4x64_epi64(
                _mm256_castsi128_si256(tws), 0x50);
            const __m256i s = csubs256(_mm256_add_epi64(x, y), s4q);
            const __m256i d =
                _mm256_sub_epi64(_mm256_add_epi64(x, four_q), y);
            const __m256i ny = mulShoupApprox256(
                d, vw, _mm256_srli_epi64(vw, 32), vws,
                _mm256_srli_epi64(vws, 32), q, q_hi);
            store256(a + base, _mm256_permute2x128_si256(s, ny, 0x20));
            store256(a + base + 4,
                     _mm256_permute2x128_si256(s, ny, 0x31));
        }
    }
    for (size_t t = 4; t <= n >> 1; t <<= 1) {
        const size_t h = n / (2 * t);
        for (size_t i = 0; i < h; ++i) {
            const u64 wi = iw[h + i], wsi = iws[h + i];
            const __m256i vw = set1_256(wi), vw_hi = set1_256(wi >> 32);
            const __m256i vws = set1_256(wsi);
            const __m256i vws_hi = set1_256(wsi >> 32);
            u64 *x = a + 2 * i * t;
            u64 *y = x + t;
            for (size_t j = 0; j < t; j += 4) {
                const __m256i xv = load256(x + j);
                const __m256i yv = load256(y + j);
                store256(x + j,
                         csubs256(_mm256_add_epi64(xv, yv), s4q));
                const __m256i d =
                    _mm256_sub_epi64(_mm256_add_epi64(xv, four_q), yv);
                store256(y + j, mulShoupApprox256(d, vw, vw_hi, vws,
                                                  vws_hi, q, q_hi));
            }
        }
    }
    const u64 ni = tb.nInv(), nis = tb.nInvShoup();
    const __m256i vni = set1_256(ni), vni_hi = set1_256(ni >> 32);
    const __m256i vnis = set1_256(nis), vnis_hi = set1_256(nis >> 32);
    for (size_t j = 0; j < n; j += 4) {
        const __m256i v =
            mulShoupApprox256(load256(a + j), vni, vni_hi, vnis,
                              vnis_hi, q, q_hi);
        store256(a + j, csubs256(csubs256(v, s2q), sq));
    }
}

// ---------------------------------------------------------------------------
// AVX2 evk MAC and pointwise product: structure identical to the
// AVX-512 versions, carries tracked with mask subtraction. The AVX2
// table keeps the scalar BConv tile: a vector tile of 4 lanes measured
// below the scalar one.
// ---------------------------------------------------------------------------

ARK_T256 void
evkMacLimbAvx2(const Modulus &m, const u64 *pd, const u64 *kb,
               const u64 *ka, u64 *ab, u64 *aa, size_t n)
{
    const Mod256 md = loadMod256(m);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i d = load256(pd + i);
        const __m256i d_hi = _mm256_srli_epi64(d, 32);
        {
            __m256i p_lo, p_hi;
            mul64_256(load256(kb + i), d, d_hi, md.m32, &p_lo, &p_hi);
            const __m256i t = barrett256(p_lo, p_hi, md);
            const __m256i acc = _mm256_add_epi64(load256(ab + i), t);
            store256(ab + i, csub256(acc, md.bq, md.bias));
        }
        {
            __m256i p_lo, p_hi;
            mul64_256(load256(ka + i), d, d_hi, md.m32, &p_lo, &p_hi);
            const __m256i t = barrett256(p_lo, p_hi, md);
            const __m256i acc = _mm256_add_epi64(load256(aa + i), t);
            store256(aa + i, csub256(acc, md.bq, md.bias));
        }
    }
    evkMacLimbScalar(m, pd + i, kb + i, ka + i, ab + i, aa + i, n - i);
}

ARK_T256 void
mulEvalLimbAvx2(const Modulus &m, const u64 *a, const u64 *b, u64 *r,
                size_t n)
{
    const Mod256 md = loadMod256(m);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i y = load256(b + i);
        __m256i p_lo, p_hi;
        mul64_256(load256(a + i), y, _mm256_srli_epi64(y, 32), md.m32,
                  &p_lo, &p_hi);
        store256(r + i, barrett256(p_lo, p_hi, md));
    }
    mulEvalLimbScalar(m, a + i, b + i, r + i, n - i);
}

// ---------------------------------------------------------------------------
// AVX2 limb embedding and plaintext MAC: structure identical to the
// AVX-512 versions, carries and borrows tracked with compare masks.
// ---------------------------------------------------------------------------

ARK_T256 void
limbEmbedAvx2(const u64 *src, size_t n, u64 src_q, const Modulus &m,
              u64 *dst)
{
    const Mod256 md = loadMod256(m);
    const u64 half = src_q / 2;
    const u64 q0_mod = m.reduceWord(src_q);
    const __m256i vhalf = set1_256(half);
    const __m256i vq0 = set1_256(q0_mod);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = load256(src + i);
        const __m256i quot = mulhi64_256(v, md.b_hi, md.b_hi_hi, md.m32);
        __m256i r = _mm256_sub_epi64(v, mullo64_256(quot, md.q, md.q_hi));
        r = csub256(r, md.bq, md.bias);
        const __m256i neg = cmpltu256(vhalf, v, md.bias);
        const __m256i borrow = cmpltu256(r, vq0, md.bias);
        const __m256i t = _mm256_add_epi64(
            _mm256_sub_epi64(r, vq0), _mm256_and_si256(borrow, md.q));
        store256(dst + i, _mm256_blendv_epi8(r, t, neg));
    }
    limbEmbedScalar(src + i, n - i, src_q, m, dst + i);
}

ARK_T256 inline void
mac256(__m256i x, __m256i y, __m256i m32, __m256i bias, u64 *lo, u64 *hi)
{
    __m256i p_lo, p_hi;
    mul64_256(x, y, _mm256_srli_epi64(y, 32), m32, &p_lo, &p_hi);
    const __m256i acc_lo = _mm256_add_epi64(load256(lo), p_lo);
    const __m256i carry = cmpltu256(acc_lo, p_lo, bias);
    const __m256i acc_hi =
        _mm256_sub_epi64(_mm256_add_epi64(load256(hi), p_hi), carry);
    store256(lo, acc_lo);
    store256(hi, acc_hi);
}

ARK_T256 void
plainMacLimbAvx2(const u64 *pt, const u64 *b, const u64 *a, u64 *acc,
                 size_t n)
{
    const __m256i m32 = set1_256(0xffffffffULL);
    const __m256i bias = set1_256(0x8000000000000000ULL);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i p = load256(pt + i);
        mac256(load256(b + i), p, m32, bias, acc + i, acc + n + i);
        mac256(load256(a + i), p, m32, bias, acc + 2 * n + i,
               acc + 3 * n + i);
    }
    for (; i < n; ++i) {
        const u128 sb = ((static_cast<u128>(acc[n + i]) << 64) | acc[i]) +
                        static_cast<u128>(pt[i]) * b[i];
        const u128 sa =
            ((static_cast<u128>(acc[3 * n + i]) << 64) | acc[2 * n + i]) +
            static_cast<u128>(pt[i]) * a[i];
        acc[i] = static_cast<u64>(sb);
        acc[n + i] = static_cast<u64>(sb >> 64);
        acc[2 * n + i] = static_cast<u64>(sa);
        acc[3 * n + i] = static_cast<u64>(sa >> 64);
    }
}

ARK_T256 void
plainReduceLimbAvx2(const Modulus &m, const u64 *acc, size_t n,
                    u64 *out_b, u64 *out_a)
{
    const Mod256 md = loadMod256(m);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        store256(out_b + i,
                 barrett256(load256(acc + i), load256(acc + n + i), md));
        store256(out_a + i, barrett256(load256(acc + 2 * n + i),
                                       load256(acc + 3 * n + i), md));
    }
    for (; i < n; ++i) {
        out_b[i] = m.reduce((static_cast<u128>(acc[n + i]) << 64) | acc[i]);
        out_a[i] = m.reduce((static_cast<u128>(acc[3 * n + i]) << 64) |
                            acc[2 * n + i]);
    }
}

} // namespace

#endif // ARK_SIMD_X86

const SimdKernels &
simdKernels(SimdTier tier)
{
    static const SimdKernels scalar_kernels{
        SimdTier::Scalar,   &nttForwardScalar,    &nttInverseScalar,
        &bconvTileScalar,   &evkMacLimbScalar,    &mulEvalLimbScalar,
        &mulAccLimbScalar,  &addLimbScalar,       &subLimbScalar,
        &mulScalarLimbScalar, &limbEmbedScalar,   &plainMacLimbScalar,
        &plainReduceLimbScalar};
#ifdef ARK_SIMD_X86
    // Each tier starts from the one below it and replaces the entries
    // it has bodies for.
    static const SimdKernels avx2_kernels = [] {
        SimdKernels k = scalar_kernels;
        k.tier = SimdTier::Avx2;
        k.ntt_forward = &nttForwardAvx2;
        k.ntt_inverse = &nttInverseAvx2;
        k.evk_mac_limb = &evkMacLimbAvx2;
        k.mul_eval_limb = &mulEvalLimbAvx2;
        k.limb_embed = &limbEmbedAvx2;
        k.plain_mac_limb = &plainMacLimbAvx2;
        k.plain_reduce_limb = &plainReduceLimbAvx2;
        return k;
    }();
    static const SimdKernels avx512_kernels = [] {
        SimdKernels k = avx2_kernels;
        k.tier = SimdTier::Avx512;
        k.ntt_forward = &nttForwardAvx512<Shoup64>;
        k.ntt_inverse = &nttInverseAvx512<Shoup64>;
        k.bconv_tile = &bconvTileAvx512;
        k.evk_mac_limb = &evkMacLimbAvx512<Shoup64>;
        k.mul_eval_limb = &mulEvalLimbAvx512<Shoup64>;
        k.mul_acc_limb = &mulAccLimbAvx512<Shoup64>;
        k.add_limb = &addLimbAvx512;
        k.sub_limb = &subLimbAvx512;
        k.mul_scalar_limb = &mulScalarLimbAvx512<Shoup64>;
        k.limb_embed = &limbEmbedAvx512;
        k.plain_mac_limb = &plainMacLimbAvx512;
        k.plain_reduce_limb = &plainReduceLimbAvx512;
        return k;
    }();
    // The same schedules with the Ifma52 multiplier (IfmaEntry hands
    // q >= 2^50 limbs to the Shoup64 ones).
    static const SimdKernels avx512ifma_kernels = [] {
        SimdKernels k = avx512_kernels;
        k.tier = SimdTier::Avx512Ifma;
        k.ntt_forward = &IfmaEntry<&nttForwardAvx512<Ifma52>,
                                   &nttForwardAvx512<Shoup64>>::run;
        k.ntt_inverse = &IfmaEntry<&nttInverseAvx512<Ifma52>,
                                   &nttInverseAvx512<Shoup64>>::run;
        k.evk_mac_limb = &IfmaEntry<&evkMacLimbAvx512<Ifma52>,
                                    &evkMacLimbAvx512<Shoup64>>::run;
        k.mul_eval_limb = &IfmaEntry<&mulEvalLimbAvx512<Ifma52>,
                                     &mulEvalLimbAvx512<Shoup64>>::run;
        k.mul_acc_limb = &IfmaEntry<&mulAccLimbAvx512<Ifma52>,
                                    &mulAccLimbAvx512<Shoup64>>::run;
        k.mul_scalar_limb = &IfmaEntry<&mulScalarLimbAvx512<Ifma52>,
                                       &mulScalarLimbAvx512<Shoup64>>::run;
        return k;
    }();
    switch (std::min(tier, detectSimdTier())) {
      case SimdTier::Avx512Ifma:
        return avx512ifma_kernels;
      case SimdTier::Avx512:
        return avx512_kernels;
      case SimdTier::Avx2:
        return avx2_kernels;
      case SimdTier::Scalar:
        break;
    }
#else
    (void)tier;
#endif
    return scalar_kernels;
}

} // namespace ark
