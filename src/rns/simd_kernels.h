/**
 * @file
 * The kernel tables of the KernelBackend, one per ISA tier (AVX-512
 * IFMA52 -> AVX-512 -> AVX2 -> scalar, selected at runtime; see
 * rns/cpu_features.h for the tier probe).
 *
 * The scalar table holds the reference loop bodies. Each vector entry
 * lands on the one value the scalar loop returns, the canonical
 * residue: the Harvey lazy NTT keeps a lazy butterfly domain per lane,
 * the dot products (the fused BConv tile and the plaintext MAC) sum
 * each word's products exactly and reduce once, with Modulus::reduce's
 * Barrett formula or, under Ifma52, a 52-bit fold reduce, and the
 * constant products and the limb embedding take a cheaper quotient and
 * fold the wider lazy result. All steps are exact arithmetic, so
 * results are bit-identical by construction
 * (tests/test_backend_parity*.cpp enforce it on every kernel).
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
 * 8-lane Shoup64 ones, the avx512ifma table the Ifma52 ones; add and
 * sub, which have no product, take the lane width only. The BConv tile
 * takes the policy and picks it per limb: under Ifma52, limbs with
 * q >= 2^50 run the Shoup64 steps.
 *
 * The compiler does not vectorize a loop with a 64x64->128-bit product,
 * a per-word reduction or an unsigned 64-bit compare, so the
 * element-wise kernels of the key-switch and rescale paths (add, sub,
 * the Shoup product with a per-limb constant, mulEval, the MAC, the
 * limb embedding and the plaintext MAC) have entries here. neg and
 * addScalar stay plain loops in KernelBackend.
 *
 * Every entry of every table is non-null and accepts every input: a
 * tier without a body for a kernel carries the entry of the tier
 * below, and the vector NTT entries run the scalar transform
 * themselves for degrees too small to fill their register windows
 * (N < 16) and for q >= 2^60 (the IFMA ones hand q >= 2^50 to the
 * Shoup64 instantiation), and the plaintext MAC takes any term count.
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
    void (*limb_embed)(const Modulus &m, const u64 *src, u64 src_q,
                       u64 *dst, size_t n);
    /**
     * One limb of the plaintext MAC: out_b = sum_t pt[t] * b[t] and
     * out_a = sum_t pt[t] * a[t] mod m over the @p k terms, each sum
     * reduced once per word (restarting from the residue past the
     * body's fold bound, so any k is exact).
     */
    void (*plain_mul_sum_limb)(const Modulus &m, const u64 *const *pt,
                               const u64 *const *b, const u64 *const *a,
                               size_t k, u64 *out_b, u64 *out_a, size_t n);
};

/**
 * Products of two residues mod @p q a 128-bit accumulator that
 * already holds a residue can absorb: floor((2^128 - q) / (q - 1)^2),
 * at least 256 for q < 2^60 and 16 for any q < 2^62. The scalar and
 * Shoup64 plaintext-MAC bodies reduce and restart from the residue
 * before exceeding it.
 */
size_t plainMacFoldTerms(const Modulus &q);

/**
 * Kernel table for @p tier, clamped to what this binary was compiled
 * with and what the running CPU reports: asking for avx512ifma on an
 * AVX2-only host returns the AVX2 table; on a scalar host (or any
 * non-x86 build) it is the scalar table.
 */
const SimdKernels &simdKernels(SimdTier tier);

} // namespace ark
