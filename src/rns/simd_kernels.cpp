#include "rns/simd_kernels.h"

#include <algorithm>
#include <cstdint>

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

size_t
plainMacFoldTerms(const Modulus &q)
{
    const u128 max_product = static_cast<u128>(q.value() - 1) *
                             (q.value() - 1);
    const u128 terms = (~static_cast<u128>(0) - (q.value() - 1)) /
                       max_product;
    return terms > SIZE_MAX ? SIZE_MAX : static_cast<size_t>(terms);
}

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
limbEmbedScalar(const Modulus &m, const u64 *src, u64 src_q, u64 *dst,
                size_t n)
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

/** plainMulSumLimbScalar on words [i, n): the vector bodies run it on
 *  the words that do not fill a whole vector. */
void
plainMulSumWords(const Modulus &m, const u64 *const *pt, const u64 *const *b,
                 const u64 *const *a, size_t k, u64 *out_b, u64 *out_a,
                 size_t n, size_t i)
{
    const size_t fold = plainMacFoldTerms(m);
    for (; i < n; ++i) {
        u128 sb = 0, sa = 0;
        for (size_t t0 = 0; t0 < k; t0 += fold) {
            if (t0 > 0) {
                sb = m.reduce(sb);
                sa = m.reduce(sa);
            }
            const size_t t1 = std::min(k, t0 + fold);
            for (size_t t = t0; t < t1; ++t) {
                sb += static_cast<u128>(pt[t][i]) * b[t][i];
                sa += static_cast<u128>(pt[t][i]) * a[t][i];
            }
        }
        out_b[i] = m.reduce(sb);
        out_a[i] = m.reduce(sa);
    }
}

void
plainMulSumLimbScalar(const Modulus &m, const u64 *const *pt,
                      const u64 *const *b, const u64 *const *a, size_t k,
                      u64 *out_b, u64 *out_a, size_t n)
{
    plainMulSumWords(m, pt, b, a, k, out_b, out_a, n, 0);
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
// Lane-width policies: the ISA-specific steps every vector kernel is
// built from. Vec8 is AVX-512F/DQ (8 lanes of u64), Vec4 is AVX2 (4
// lanes). Each supplies
//
//   set1 / load / store, add / sub / andv / orv, shr32 / shl32, and
//       mul32 (the 32x32->64 partial product of the low halves);
//   mullo64(x, c, c_hi), the low 64 bits of x * c given c_hi = c >> 32
//       (vpmullq on Vec8, three partials on Vec4);
//   csub(v, b) = v >= b ? v - b : v for v < 2^63, and subMod(a, b, q);
//   carry(sum, addend) = (sum < addend ? 1 : 0), the carry out of
//       sum = x + addend, and addCarry(acc, sum, addend) = acc + carry;
//   selectGt(v, bound, t, f) = v > bound ? t : f;
//   split<T> / merge<T> / spread<T>, the NTT's sub-vector windows: for
//       a butterfly span T below the lane count, split deinterleaves a
//       2L-element window (v0, v1) into x (the first butterfly halves)
//       and y (the second), merge interleaves them back, and spread
//       loads the window's L / T block twiddles from a table and
//       broadcasts each to its lanes;
//
// and two shape parameters of the NTT schedule, both set by
// measurement:
//
//   kFusedPairs  run the whole-vector stages as fused pairs, with the
//                t = L stage in the register window when the pair count
//                leaves it over (Vec8). Vec4 has 16 registers: a fused
//                pair's three twiddles spill, and a t = L butterfly in
//                the window ran slower than its own pass, so Vec4 runs
//                single stages down to t = L.
//   kWindows     windows per window step. Vec4 takes two, so that the
//                dependent stages of one overlap those of the other.
//
// Every step is exact on u64 lanes, so lane k computes precisely what
// the scalar loop computes for element k. x86 has no unsigned 64-bit
// compare below AVX-512, so Vec4 compares signed: after XOR-ing the
// sign bit in where a value may reach 2^63.
// ---------------------------------------------------------------------------

struct Vec8
{
    using R = __m512i;
    static constexpr size_t kLanes = 8;
    static constexpr size_t kWindows = 1;
    static constexpr bool kFusedPairs = true;

    ARK_T512 static R
    set1(u64 v)
    {
        return _mm512_set1_epi64(static_cast<long long>(v));
    }
    ARK_T512 static R load(const u64 *p) { return _mm512_loadu_si512(p); }
    ARK_T512 static void store(u64 *p, R v) { _mm512_storeu_si512(p, v); }
    ARK_T512 static R add(R a, R b) { return _mm512_add_epi64(a, b); }
    ARK_T512 static R sub(R a, R b) { return _mm512_sub_epi64(a, b); }
    ARK_T512 static R andv(R a, R b) { return _mm512_and_si512(a, b); }
    ARK_T512 static R orv(R a, R b) { return _mm512_or_si512(a, b); }
    ARK_T512 static R shr32(R a) { return _mm512_srli_epi64(a, 32); }
    ARK_T512 static R shl32(R a) { return _mm512_slli_epi64(a, 32); }
    ARK_T512 static R mul32(R a, R b) { return _mm512_mul_epu32(a, b); }

    /** c_hi is unused: AVX-512DQ's vpmullq is a native 64-bit low
     *  multiply. */
    ARK_T512 static R
    mullo64(R x, R c, R c_hi)
    {
        (void)c_hi;
        return _mm512_mullo_epi64(x, c);
    }

    /** Any v and b. */
    ARK_T512 static R
    csub(R v, R b)
    {
        return _mm512_mask_sub_epi64(v, _mm512_cmpge_epu64_mask(v, b), v,
                                     b);
    }

    ARK_T512 static R
    subMod(R a, R b, R q)
    {
        const R d = sub(a, b);
        return _mm512_mask_add_epi64(d, _mm512_cmplt_epu64_mask(a, b), d, q);
    }

    ARK_T512 static R
    carry(R sum, R addend)
    {
        return _mm512_maskz_mov_epi64(_mm512_cmplt_epu64_mask(sum, addend),
                                      _mm512_set1_epi64(1));
    }

    ARK_T512 static R
    addCarry(R acc, R sum, R addend)
    {
        return _mm512_mask_add_epi64(acc,
                                     _mm512_cmplt_epu64_mask(sum, addend),
                                     acc, _mm512_set1_epi64(1));
    }

    ARK_T512 static R
    selectGt(R v, R bound, R t, R f)
    {
        return _mm512_mask_mov_epi64(f, _mm512_cmpgt_epu64_mask(v, bound),
                                     t);
    }

    /** The lane indices of span T's window: x / y gather the first /
     *  second butterfly halves from the 16 words (v0, v1), back0 /
     *  back1 put them back, and bcast spreads the T-th block twiddles. */
    template <size_t T>
    ARK_T512 static void
    window(R *idx_x, R *idx_y, R *bcast, R *back0, R *back1)
    {
        if constexpr (T == 4) {
            *idx_x = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
            *idx_y = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
            *bcast = _mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1);
            *back0 = *idx_x;
            *back1 = *idx_y;
        } else if constexpr (T == 2) {
            *idx_x = _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13);
            *idx_y = _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15);
            *bcast = _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
            *back0 = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
            *back1 = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
        } else {
            static_assert(T == 1);
            *idx_x = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
            *idx_y = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
            *bcast = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
            *back0 = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
            *back1 = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
        }
    }

    template <size_t T>
    ARK_T512 static void
    split(R v0, R v1, R *x, R *y)
    {
        R idx_x, idx_y, bcast, back0, back1;
        window<T>(&idx_x, &idx_y, &bcast, &back0, &back1);
        *x = _mm512_permutex2var_epi64(v0, idx_x, v1);
        *y = _mm512_permutex2var_epi64(v0, idx_y, v1);
    }

    template <size_t T>
    ARK_T512 static void
    merge(R x, R y, R *v0, R *v1)
    {
        R idx_x, idx_y, bcast, back0, back1;
        window<T>(&idx_x, &idx_y, &bcast, &back0, &back1);
        *v0 = _mm512_permutex2var_epi64(x, back0, y);
        *v1 = _mm512_permutex2var_epi64(x, back1, y);
    }

    /** The masked load never reads past the window's 8 / T entries. */
    template <size_t T>
    ARK_T512 static R
    spread(const u64 *p)
    {
        R idx_x, idx_y, bcast, back0, back1;
        window<T>(&idx_x, &idx_y, &bcast, &back0, &back1);
        const __mmask8 lmask = static_cast<__mmask8>((1u << (8 / T)) - 1);
        return _mm512_permutexvar_epi64(bcast,
                                        _mm512_maskz_loadu_epi64(lmask, p));
    }
};

struct Vec4
{
    using R = __m256i;
    static constexpr size_t kLanes = 4;
    static constexpr size_t kWindows = 2;
    static constexpr bool kFusedPairs = false;

    ARK_T256 static R
    set1(u64 v)
    {
        return _mm256_set1_epi64x(static_cast<long long>(v));
    }
    ARK_T256 static R
    load(const u64 *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const R *>(p));
    }
    ARK_T256 static void
    store(u64 *p, R v)
    {
        _mm256_storeu_si256(reinterpret_cast<R *>(p), v);
    }
    ARK_T256 static R add(R a, R b) { return _mm256_add_epi64(a, b); }
    ARK_T256 static R sub(R a, R b) { return _mm256_sub_epi64(a, b); }
    ARK_T256 static R andv(R a, R b) { return _mm256_and_si256(a, b); }
    ARK_T256 static R orv(R a, R b) { return _mm256_or_si256(a, b); }
    ARK_T256 static R shr32(R a) { return _mm256_srli_epi64(a, 32); }
    ARK_T256 static R shl32(R a) { return _mm256_slli_epi64(a, 32); }
    ARK_T256 static R mul32(R a, R b) { return _mm256_mul_epu32(a, b); }

    ARK_T256 static R
    mullo64(R x, R c, R c_hi)
    {
        const R cross = add(mul32(shr32(x), c), mul32(x, c_hi));
        return add(mul32(x, c), shl32(cross));
    }

    /** a < b (unsigned) per lane, as an all-ones / all-zeros mask. */
    ARK_T256 static R
    ltMask(R a, R b)
    {
        const R bias = set1(0x8000000000000000ULL);
        return _mm256_cmpgt_epi64(_mm256_xor_si256(b, bias),
                                  _mm256_xor_si256(a, bias));
    }

    /** For 1 <= b and v < 2^63, where the signed compare is the
     *  unsigned one. */
    ARK_T256 static R
    csub(R v, R b)
    {
        return sub(v, andv(_mm256_cmpgt_epi64(v, sub(b, set1(1))), b));
    }

    ARK_T256 static R
    subMod(R a, R b, R q)
    {
        return add(sub(a, b), andv(ltMask(a, b), q));
    }

    /** Subtracting the all-ones compare mask adds 1 per carrying lane. */
    ARK_T256 static R
    carry(R sum, R addend)
    {
        return sub(_mm256_setzero_si256(), ltMask(sum, addend));
    }

    ARK_T256 static R
    addCarry(R acc, R sum, R addend)
    {
        return sub(acc, ltMask(sum, addend));
    }

    ARK_T256 static R
    selectGt(R v, R bound, R t, R f)
    {
        return _mm256_blendv_epi8(f, t, ltMask(bound, v));
    }

    /** Span 2: x = {e0, e1, e4, e5}, y = {e2, e3, e6, e7}. Span 1:
     *  x = {e0, e4, e2, e6}, y = {e1, e5, e3, e7} (blocks 0, 2, 1, 3,
     *  which spread<1> matches). */
    template <size_t T>
    ARK_T256 static void
    split(R v0, R v1, R *x, R *y)
    {
        if constexpr (T == 2) {
            *x = _mm256_permute2x128_si256(v0, v1, 0x20);
            *y = _mm256_permute2x128_si256(v0, v1, 0x31);
        } else {
            static_assert(T == 1);
            *x = _mm256_unpacklo_epi64(v0, v1);
            *y = _mm256_unpackhi_epi64(v0, v1);
        }
    }

    /** split's inverse: both shuffles undo themselves. */
    template <size_t T>
    ARK_T256 static void
    merge(R x, R y, R *v0, R *v1)
    {
        split<T>(x, y, v0, v1);
    }

    template <size_t T>
    ARK_T256 static R
    spread(const u64 *p)
    {
        if constexpr (T == 2) {
            return _mm256_permute4x64_epi64(
                _mm256_castsi128_si256(
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(p))),
                0x50);
        } else {
            static_assert(T == 1);
            return _mm256_permute4x64_epi64(load(p), 0xD8);
        }
    }
};

/**
 * Exclusive modulus bound of the vector NTT bodies under the Shoup64
 * policy: its approximate-Shoup butterfly lets lazy values reach 8q,
 * so they need 8q < 2^63. A wider limb runs the scalar transform, which
 * stays exact for any q < 2^62.
 */
constexpr u64 kVecNttMaxQ = 1ULL << 60;

} // namespace

// ---------------------------------------------------------------------------
// The kernels of each width: rns/simd_schedules.inc, included once per
// lane-width policy with that width's target attributes (a function
// template carries one target attribute, so a schedule shared across
// widths by templating alone would compile its 4-lane instantiations
// with AVX-512 enabled). ARK_TLANES is the lane ISA, ARK_TSCHED the ISA
// of the multiplier-policy templates: the 8-lane ones are compiled for
// avx512ifma so that the Ifma52 policy below can instantiate them.
// ---------------------------------------------------------------------------

namespace {
namespace avx2 {
using V = Vec4;
#define ARK_TLANES ARK_T256
#define ARK_TSCHED ARK_T256
#include "rns/simd_schedules.inc"
#undef ARK_TLANES
#undef ARK_TSCHED
} // namespace avx2

namespace avx512 {
using V = Vec8;
#define ARK_TLANES ARK_T512
#define ARK_TSCHED ARK_TIFMA
#include "rns/simd_schedules.inc"
#undef ARK_TLANES
#undef ARK_TSCHED

/**
 * The second 8-lane multiplier: exact 52-bit products in vpmadd52 ops
 * (Boemer et al., "Intel HEXL: Accelerating Homomorphic Encryption with
 * Intel AVX512-IFMA52", 2021). Every multiplier input has to stay below
 * 2^52, so the lazy fold bound B is 2q (forward NTT values in [0, 4q),
 * inverse ones in [0, 2q)) and q < 2^50; IfmaEntry hands wider limbs to
 * the Shoup64 instantiation. scripts/check_simd_isa.py fails if a
 * vpmadd52 shows up in a function not named for this policy.
 */
struct Ifma52
{
    /** Exclusive modulus bound: 4q < 2^52. */
    static constexpr u64 kMaxQ = 1ULL << 50;

    /** Twiddle w and its 52-bit Shoup word floor(w * 2^52 / q), which is
     *  the stored 64-bit one >> 12, so no twiddle table is added. */
    struct Tw
    {
        R w, w52;
    };
    /** mulMod's Barrett constants ride along: with L = bits(q),
     *  c1 = floor(ab / 2^(L-2)) is below 2^(L+2) <= 2^52 and
     *  k = Modulus::barrett52() = floor(2^(L+50) / q) below 2^51. So do
     *  the fold reduce's column weights 2^(52 e) mod q as Shoup
     *  twiddles (Modulus::pow52). */
    struct Mod
    {
        R q, two_q;
        R bound; ///< the lazy fold bound B = 2q
        R neg_q; ///< 2^52 - q
        R mask;  ///< 2^52 - 1
        __m128i shift_lo, shift_hi; ///< L - 2 and 52 - (L - 2)
        R k;
        Tw col[3]; ///< 1, 2^52 and 2^104 mod q
    };

    ARK_TIFMA static Mod
    load(const Modulus &m)
    {
        const int bits = m.bits();
        const R two_q = V::set1(m.twoQ());
        return {V::set1(m.value()),
                two_q,
                two_q,
                V::set1((1ULL << 52) - m.value()),
                V::set1((1ULL << 52) - 1),
                _mm_cvtsi64_si128(bits - 2),
                _mm_cvtsi64_si128(54 - bits),
                V::set1(m.barrett52()),
                {{V::set1(m.pow52(0)), V::set1(m.pow52Shoup(0))},
                 {V::set1(m.pow52(1)), V::set1(m.pow52Shoup(1))},
                 {V::set1(m.pow52(2)), V::set1(m.pow52Shoup(2))}}};
    }

    ARK_TIFMA static Tw
    twiddle(u64 w, u64 ws)
    {
        return {V::set1(w), V::set1(ws >> 12)};
    }

    ARK_TIFMA static Tw
    twiddleLanes(R w, R ws)
    {
        return {w, _mm512_srli_epi64(ws, 12)};
    }

    /**
     * Shoup product x * w mod q in [0, 2q) for x < 2^52: the quotient
     * Q = floor(x * w52 / 2^52) undershoots floor(x * w / q) by at most
     * one, so x * w - Q * q lies in [0, 2q) < 2^52 and its low 52 bits,
     * x * w + Q * (2^52 - q) mod 2^52, are the whole value.
     */
    ARK_TIFMA static R
    mulShoup(R x, const Tw &tw, const Mod &md)
    {
        const R zero = _mm512_setzero_si512();
        const R quot = _mm512_madd52hi_epu64(zero, x, tw.w52);
        const R xw = _mm512_madd52lo_epu64(zero, x, tw.w);
        return V::andv(_mm512_madd52lo_epu64(xw, quot, md.neg_q), md.mask);
    }

    ARK_TIFMA static R
    canon(R v, const Mod &md)
    {
        return V::csub(v, md.q);
    }

    /**
     * a * b mod q in [0, 3q) for a, b < q < 2^50. The quotient
     * floor(c1 * k / 2^52) never overshoots ab / q and undershoots it
     * by less than 2.5 (c1 and k each lose under one unit; the losses
     * weigh ab / 2^(L+50) < 1 and 2^(L-2) / q <= 1/2), so the remainder
     * lies in [0, 3q) < 2^52 and its low 52 bits are the whole value.
     */
    ARK_TIFMA static R
    mulModLazy(R a, R b, const Mod &md)
    {
        const R zero = _mm512_setzero_si512();
        const R lo = _mm512_madd52lo_epu64(zero, a, b);
        const R hi = _mm512_madd52hi_epu64(zero, a, b);
        const R c1 = V::orv(_mm512_srl_epi64(lo, md.shift_lo),
                            _mm512_sll_epi64(hi, md.shift_hi));
        const R quot = _mm512_madd52hi_epu64(zero, c1, md.k);
        return V::andv(_mm512_madd52lo_epu64(lo, quot, md.neg_q), md.mask);
    }

    ARK_TIFMA static R
    mulMod(R a, R b, const Mod &md)
    {
        return canon4q(mulModLazy(a, b, md), md);
    }

    /** acc + [0, 3q) < 4q, so two folds reach the canonical residue. */
    ARK_TIFMA static R
    mulAddMod(R a, R b, R acc, const Mod &md)
    {
        return canon4q(V::add(acc, mulModLazy(a, b, md)), md);
    }

    /**
     * The 52-bit fold reduce: the canonical residue of
     * S = lo + hi * 2^52 for any lanes with S < 2^116. Carrying lo's
     * top bits into hi gives h = floor(S / 2^52) < 2^64 exactly, so S
     * is the three 52-bit columns (lo mod 2^52) + (h mod 2^52) * 2^52
     * + (h >> 52) * 2^104 (the top one below 2^12). Each column times
     * its weight 2^(52 e) mod q is a Shoup product in [0, 2q): the sum
     * of the first two folds below 2q, the third brings it below 4q,
     * and two conditional subtracts finish.
     */
    ARK_TIFMA static R
    foldReduce(R lo, R hi, const Mod &md)
    {
        const R h = V::add(hi, _mm512_srli_epi64(lo, 52));
        const R r = V::add(reduceLazy(V::andv(lo, md.mask), md),
                           mulShoup(V::andv(h, md.mask), md.col[1], md));
        const R top = mulShoup(_mm512_srli_epi64(h, 52), md.col[2], md);
        return canon4q(V::add(V::csub(r, md.two_q), top), md);
    }

    /** x mod q in [0, 2q) for x < 2^52: mulShoup by 1, whose x * w is
     *  x itself. */
    ARK_TIFMA static R
    reduceLazy(R x, const Mod &md)
    {
        const R quot = _mm512_madd52hi_epu64(_mm512_setzero_si512(), x,
                                             md.col[0].w52);
        return V::andv(_mm512_madd52lo_epu64(x, quot, md.neg_q), md.mask);
    }

    /** [0, 4q) -> [0, q). */
    ARK_TIFMA static R
    canon4q(R v, const Mod &md)
    {
        return V::csub(V::csub(v, md.two_q), md.q);
    }

    /** v mod q for any 64-bit v: the first two columns of foldReduce,
     *  (v mod 2^52) + (v >> 52) * 2^52, in place of reduceWord's
     *  64-bit quotient. */
    ARK_TIFMA static R
    reduceWord(R v, const Mod &md)
    {
        return canon4q(
            V::add(reduceLazy(V::andv(v, md.mask), md),
                   mulShoup(_mm512_srli_epi64(v, 52), md.col[1], md)),
            md);
    }

    // The dot products' hooks (bconvTile and plainMulSumLimb in
    // rns/simd_schedules.inc).

    /** vpmadd52 reads the low 52 bits of y: accAdd takes y < 2^52
     *  whole, and accAddTop adds the rest of a wider one. */
    static constexpr u64 kAccMaxY = (1ULL << 52) - 1;

    /** The MAC's sum in two 52-bit columns: lo gains the low 52 bits
     *  of each product, hi the bits from 52 up, so the sum is
     *  lo + hi * 2^52 (exact while accFits holds). */
    struct Acc
    {
        R lo, hi;
    };

    /** acc += y * r for r < 2^52, reading y mod 2^52 (y_lo):
     *  lo += (y_lo * r) mod 2^52, hi += floor(y_lo * r / 2^52). */
    ARK_TIFMA static void
    accAdd(Acc *acc, R y, R r)
    {
        acc->lo = _mm512_madd52lo_epu64(acc->lo, y, r);
        acc->hi = _mm512_madd52hi_epu64(acc->hi, y, r);
    }

    /** The part of y * r that accAdd drops for y >= 2^52:
     *  hi += (y >> 52) * r, below 2^60 for y < 2^62 and r < 2^50, so
     *  vpmullq's low 64 bits are the whole product. With it, hi gains
     *  exactly floor(y * r / 2^52). */
    ARK_TIFMA static void
    accAddTop(Acc *acc, R y, R r)
    {
        const R top = _mm512_srli_epi64(y, 52);
        acc->hi = V::add(acc->hi, V::mullo64(top, r, r));
    }

    ARK_TIFMA static R
    accReduce(const Acc &acc, const Mod &md)
    {
        return foldReduce(acc.lo, acc.hi, md);
    }

    /**
     * Lane bounds of nb products y_j * r with y_j < p_j and r < q
     * (sum_in = the sum of p_j - 1): lo gains below 2^52 per product,
     * so it holds for nb < 2^12; hi gains floor(y_j * r / 2^52) <=
     * (p_j - 1)(q - 1) / 2^52, so it holds while (q - 1) * sum_in is
     * below 2^116, which is also foldReduce's bound on the sum S (its
     * h = floor(S / 2^52) stays below 2^64, its top column below
     * 2^12). testBoot's digit 0 (q0 plus six 42-bit primes) reaches
     * about 2^110, so its top column is nonzero; testSmall's ModDown
     * (two 60-bit primes into 40-bit ones) about 2^101.
     */
    static bool
    accFits(u64 q, size_t nb, u128 sum_in)
    {
        return nb < (1u << 12) &&
               static_cast<u128>(q - 1) * sum_in < (u128(1) << 116);
    }

    /**
     * The plaintext MAC's lane bound, for residues below q < 2^50: a
     * run restarts lo from a residue and adds below 2^52 per term, so
     * lo stays below 2^64 for 2^12 - 1 terms; the sum stays below
     * q + 2^12 (q - 1)^2 < 2^112, inside foldReduce's 2^116. A
     * testBoot giant step (at most 16 terms per call) never folds.
     */
    static size_t macFoldTerms(const Modulus &) { return (1u << 12) - 1; }
};

// ---------------------------------------------------------------------------
// The AVX-512-only entries: add and sub. The AVX2 table keeps the
// scalar ones, and the scalar BConv tile: a vector BConv tile of 4
// lanes measured below the scalar one.
// ---------------------------------------------------------------------------

ARK_T512 void
addLimb(const Modulus &m, const u64 *a, const u64 *b, u64 *r, size_t n)
{
    const R q = V::set1(m.value());
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        V::store(r + i, V::csub(V::add(V::load(a + i), V::load(b + i)), q));
    addLimbScalar(m, a + i, b + i, r + i, n - i);
}

ARK_T512 void
subLimb(const Modulus &m, const u64 *a, const u64 *b, u64 *r, size_t n)
{
    const R q = V::set1(m.value());
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        V::store(r + i, V::subMod(V::load(a + i), V::load(b + i), q));
    subLimbScalar(m, a + i, b + i, r + i, n - i);
}

// ---------------------------------------------------------------------------
// The IFMA table's entries: Ifma52's products are exact only for
// q < 2^50, so a wider limb runs the Shoup64 instantiation of the same
// kernel. A one-limb kernel hands off whole (IfmaEntry); the BConv tile
// spans many limbs and picks its policy per limb itself.
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

} // namespace avx512
} // namespace

#endif // ARK_SIMD_X86

const SimdKernels &
simdKernels(SimdTier tier)
{
    static const SimdKernels scalar_kernels{
        SimdTier::Scalar,     &nttForwardScalar,  &nttInverseScalar,
        &bconvTileScalar,     &evkMacLimbScalar,  &mulEvalLimbScalar,
        &mulAccLimbScalar,    &addLimbScalar,     &subLimbScalar,
        &mulScalarLimbScalar, &limbEmbedScalar,   &plainMulSumLimbScalar};
#ifdef ARK_SIMD_X86
    // Each tier starts from the one below it and replaces the entries
    // it has bodies for.
    static const SimdKernels avx2_kernels = [] {
        using avx2::Shoup64;
        SimdKernels k = scalar_kernels;
        k.tier = SimdTier::Avx2;
        k.ntt_forward = &avx2::nttForward<Shoup64>;
        k.ntt_inverse = &avx2::nttInverse<Shoup64>;
        k.evk_mac_limb = &avx2::evkMacLimb<Shoup64>;
        k.mul_eval_limb = &avx2::mulEvalLimb<Shoup64>;
        k.limb_embed = &avx2::limbEmbed<Shoup64>;
        k.plain_mul_sum_limb = &avx2::plainMulSumLimb<Shoup64>;
        return k;
    }();
    static const SimdKernels avx512_kernels = [] {
        using avx512::Shoup64;
        SimdKernels k = avx2_kernels;
        k.tier = SimdTier::Avx512;
        k.ntt_forward = &avx512::nttForward<Shoup64>;
        k.ntt_inverse = &avx512::nttInverse<Shoup64>;
        k.bconv_tile = &avx512::bconvTile<Shoup64>;
        k.evk_mac_limb = &avx512::evkMacLimb<Shoup64>;
        k.mul_eval_limb = &avx512::mulEvalLimb<Shoup64>;
        k.mul_acc_limb = &avx512::mulAccLimb<Shoup64>;
        k.add_limb = &avx512::addLimb;
        k.sub_limb = &avx512::subLimb;
        k.mul_scalar_limb = &avx512::mulScalarLimb<Shoup64>;
        k.limb_embed = &avx512::limbEmbed<Shoup64>;
        k.plain_mul_sum_limb = &avx512::plainMulSumLimb<Shoup64>;
        return k;
    }();
    // The same schedules with the Ifma52 multiplier (q >= 2^50 limbs
    // run the Shoup64 ones).
    static const SimdKernels avx512ifma_kernels = [] {
        using namespace avx512;
        SimdKernels k = avx512_kernels;
        k.tier = SimdTier::Avx512Ifma;
        k.ntt_forward =
            &IfmaEntry<&nttForward<Ifma52>, &nttForward<Shoup64>>::run;
        k.ntt_inverse =
            &IfmaEntry<&nttInverse<Ifma52>, &nttInverse<Shoup64>>::run;
        k.evk_mac_limb =
            &IfmaEntry<&evkMacLimb<Ifma52>, &evkMacLimb<Shoup64>>::run;
        k.mul_eval_limb =
            &IfmaEntry<&mulEvalLimb<Ifma52>, &mulEvalLimb<Shoup64>>::run;
        k.mul_acc_limb =
            &IfmaEntry<&mulAccLimb<Ifma52>, &mulAccLimb<Shoup64>>::run;
        k.mul_scalar_limb =
            &IfmaEntry<&mulScalarLimb<Ifma52>, &mulScalarLimb<Shoup64>>::run;
        k.limb_embed =
            &IfmaEntry<&limbEmbed<Ifma52>, &limbEmbed<Shoup64>>::run;
        k.plain_mul_sum_limb = &IfmaEntry<&plainMulSumLimb<Ifma52>,
                                          &plainMulSumLimb<Shoup64>>::run;
        k.bconv_tile = &bconvTile<Ifma52>;
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
