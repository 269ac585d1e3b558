/**
 * @file
 * The kernel tables of the KernelBackend, one per ISA tier (AVX-512
 * IFMA52 -> AVX-512 -> AVX2 -> scalar, selected at runtime; see
 * rns/cpu_features.h for the tier probe).
 *
 * The scalar table holds the reference loop bodies. Each vector entry
 * runs the exact same integer arithmetic lane-wise: the Harvey lazy
 * NTT keeps a lazy butterfly domain per lane, the fused BConv tile
 * accumulates each coefficient's exact 128-bit MAC sum lane-wise, the
 * reduces of the BConv tile, the evk MAC, mulEval and the plaintext
 * MAC mirror Modulus::reduce's Barrett formula, and the limb embedding
 * mirrors Modulus::reduceWord. The vector constant products
 * take a cheaper Shoup quotient and fold the wider lazy result to the
 * canonical residue, the one value the scalar loop returns. All
 * operations are exact arithmetic applied in the same per-element
 * order as the scalar loops, so results are bit-identical by
 * construction (tests/test_backend_parity.cpp enforces it on every
 * kernel).
 *
 * Each vector kernel is written once (rns/simd_schedules.inc), over
 * a lane-width policy and a multiplier policy, the way ARK's NTTU runs
 * one stage schedule whatever its modular multiplier does. The lane
 * width is Vec8 (AVX-512F/DQ, 8 lanes of u64) or Vec4 (AVX2, 4 lanes):
 * the ISA steps such as the 64-bit low product, the conditional
 * subtract, the carries and the NTT's window shuffles. The multiplier
 * is Shoup64, which builds the 64-bit products from 32x32->64 partials
 * (x86 has no packed 64x64->128 multiply), or Ifma52, exact 52-bit
 * products in vpmadd52 ops on 8 lanes for limbs with q < 2^50. The
 * avx2 table lists 4-lane Shoup64 instantiations, the avx512 table
 * 8-lane Shoup64 ones, the avx512ifma table the Ifma52 ones; kernels
 * without a modular product the policies differ in (add, sub, the limb
 * embedding, the plaintext MAC) take the lane width only. The BConv
 * tile takes the policy and picks it per limb: under Ifma52, limbs
 * with q >= 2^50 run the Shoup64 steps.
 *
 * The compiler does not vectorize a loop with a 64x64->128-bit product,
 * a per-word reduction or an unsigned 64-bit compare, so the
 * element-wise kernels of the key-switch and rescale paths (add, sub,
 * the Shoup product with a per-limb constant, mulEval, the MAC and the
 * limb embedding) have entries here. neg and addScalar stay plain
 * loops in KernelBackend.
 *
 * Every entry of every table is non-null and accepts every input: a
 * tier without a body for a kernel carries the entry of the tier
 * below, and the vector NTT entries run the scalar transform
 * themselves for degrees too small to fill their register windows
 * (N < 16) and for q >= 2^60 (the IFMA ones hand q >= 2^50 to the
 * Shoup64 instantiation).
 */

#pragma once

#include <cstddef>

#include "common/types.h"
#include "rns/cpu_features.h"

namespace ark {

class BaseConverter;
class Modulus;
class NttTables;
class RnsPoly;

/** Function table of one ISA tier's kernels. */
struct SimdKernels
{
    /** Tier these kernels actually are (after clamping to the host). */
    SimdTier tier;

    /** In-place lazy forward NTT of one limb (== NttTables::forward). */
    void (*ntt_forward)(u64 *limb, const NttTables &tables);
    /** In-place lazy inverse NTT of one limb (== NttTables::inverse). */
    void (*ntt_inverse)(u64 *limb, const NttTables &tables);
    /** Fused BConv scale+MAC over a coefficient tile [c0, c1)
     *  (== BaseConverter::convertTile; scratch >= kTileWords). */
    void (*bconv_tile)(const BaseConverter &bc, const RnsPoly &in,
                       size_t c0, size_t c1, u64 *scratch, RnsPoly &out);
    /** One limb of the key-switch MAC: ab += d * kb, aa += d * ka
     *  mod m. */
    void (*evk_mac_limb)(const Modulus &m, const u64 *d, const u64 *kb,
                         const u64 *ka, u64 *ab, u64 *aa, size_t n);
    /** One limb of the pointwise product r = a * b mod m (r may alias
     *  a or b). */
    void (*mul_eval_limb)(const Modulus &m, const u64 *a, const u64 *b,
                          u64 *r, size_t n);
    /** One limb of r += a * b mod m. */
    void (*mul_acc_limb)(const Modulus &m, const u64 *a, const u64 *b,
                         u64 *r, size_t n);
    /** One limb of r = a + b mod m (r may alias a or b). */
    void (*add_limb)(const Modulus &m, const u64 *a, const u64 *b, u64 *r,
                     size_t n);
    /** One limb of r = a - b mod m (r may alias a or b). */
    void (*sub_limb)(const Modulus &m, const u64 *a, const u64 *b, u64 *r,
                     size_t n);
    /** One limb of the Shoup product with a constant s < q:
     *  r = (a - b) * s mod m, or r = a * s when @p b is null (r may
     *  alias a or b). */
    void (*mul_scalar_limb)(const Modulus &m, const u64 *a, const u64 *b,
                            u64 s, u64 *r, size_t n);
    /** One limb of the centered embedding: dst = (src centered mod
     *  src_q) mod m. */
    void (*limb_embed)(const u64 *src, size_t n, u64 src_q,
                       const Modulus &m, u64 *dst);
    /**
     * One limb of the plaintext MAC: @p acc holds four rows of n
     * words, the 128-bit accumulators (lo row, hi row) of b then of
     * a; they gain pt * b and pt * a (no reduction).
     */
    void (*plain_mac_limb)(const u64 *pt, const u64 *b, const u64 *a,
                           u64 *acc, size_t n);
    /** Reduce plain_mac_limb's rows mod m into @p out_b / @p out_a,
     *  which may alias the two lo rows. */
    void (*plain_reduce_limb)(const Modulus &m, const u64 *acc, size_t n,
                              u64 *out_b, u64 *out_a);
};

/**
 * Kernel table for @p tier, clamped to what this binary was compiled
 * with and what the running CPU reports: asking for avx512ifma on an
 * AVX2-only host returns the AVX2 table; on a scalar host (or any
 * non-x86 build) it is the scalar table.
 */
const SimdKernels &simdKernels(SimdTier tier);

} // namespace ark
