/**
 * @file
 * Base conversion (BConv) between RNS prime sets, Eq. 4 of the paper.
 *
 * BConv takes a polynomial's limbs over an input base B and produces
 * limbs over an output base C without leaving RNS:
 *
 *   [P]_C = { sum_j ([P]_{p_j} * phat_j^-1 mod p_j) * (phat_j mod q_i) }_i
 *
 * This is the "fast/approximate" conversion: the result may carry an
 * extra small multiple of prod(B), which CKKS absorbs into noise.
 * The (|C| x |B|) matrix of (phat_j mod q_i) constants is the *base
 * table* held in ARK's BConvU broadcast units; the second stage is the
 * matrix multiply the 1x6 MAC systolic lanes execute (Section V-A).
 * Input and output must be in the coefficient representation.
 */

#pragma once

#include <vector>

#include "rns/poly.h"

namespace ark {

/** Precomputed tables for converting base B -> base C. */
class BaseConverter
{
  public:
    BaseConverter(std::vector<Modulus> in_base,
                  std::vector<Modulus> out_base);

    const std::vector<Modulus> &inBase() const { return in_base_; }
    const std::vector<Modulus> &outBase() const { return out_base_; }

    /**
     * Scratch words a convertTile caller must provide: one tile worth
     * of transposed scaled values, (tileCoeffs() x |B|) <= kTileWords.
     */
    static constexpr size_t kTileWords = 2048;

    /** Coefficients per fused tile (sized so the transposed scratch
     *  stays L1/L2-resident: tileCoeffs() * |B| <= kTileWords). */
    size_t tileCoeffs() const { return tile_coeffs_; }

    /**
     * Fused scale + matmul over the coefficient tile [c0, c1): scales
     * each input limb's tile segment by phat_j^-1 into a TRANSPOSED
     * per-tile scratch (scratch[(c - c0) * |B| + j], so the MAC's
     * inner j loop reads contiguous words instead of striding
     * in.limb(j)[c] across limb rows N words apart), then runs the
     * unrolled base-table MAC into out.limb(i)[c0..c1) for every
     * output limb. @p scratch must hold at least (c1 - c0) * |B|
     * words (kTileWords covers any tile the class sizes). Tiles are
     * independent: callers may process them in any order or in
     * parallel (the kernel backends parallelize over tiles).
     *
     * Defined inline below: every call site passes a stack-local
     * scratch array, and inlining is what lets the compiler prove it
     * aliases nothing — worth ~15% on the MAC.
     */
    void convertTile(const RnsPoly &in, size_t c0, size_t c1,
                     u64 *scratch, RnsPoly &out) const;

    /** Base-table entry (phat_j mod q_i). */
    u64 baseTable(size_t i, size_t j) const
    {
        return base_table_[i * in_base_.size() + j];
    }

    /** Row i of the base table: the |B| entries phat_j mod q_i. */
    const u64 *baseRow(size_t i) const
    {
        return base_table_.data() + i * in_base_.size();
    }

    /** Largest input base the class accepts. */
    static constexpr size_t kMaxInLimbs = 256;

    /** Scale-stage constant phat_j^-1 mod p_j (for kernel backends). */
    u64 phatInvModP(size_t j) const { return phat_inv_mod_pj_[j]; }
    /** Shoup companion of phatInvModP. */
    u64 phatInvModPShoup(size_t j) const
    {
        return phat_inv_mod_pj_shoup_[j];
    }

  private:
    std::vector<Modulus> in_base_;
    std::vector<Modulus> out_base_;
    /** phat_j^-1 mod p_j for each input prime. */
    std::vector<u64> phat_inv_mod_pj_;
    std::vector<u64> phat_inv_mod_pj_shoup_;
    /** Row-major (|C| x |B|) base table: phat_j mod q_i. */
    std::vector<u64> base_table_;
    size_t tile_coeffs_ = 0;
};

inline void
BaseConverter::convertTile(const RnsPoly &in, size_t c0, size_t c1,
                           u64 *scratch, RnsPoly &out) const
{
    const size_t nb = in_base_.size();
    const size_t nc = out_base_.size();
    const size_t tile = c1 - c0;

    // Scale stage fused into a transpose: scratch holds the tile in
    // coefficient-major order so the MAC below reads each
    // coefficient's |B| scaled residues as one contiguous row.
    for (size_t j = 0; j < nb; ++j) {
        const Modulus &pj = in_base_[j];
        const u64 s = phat_inv_mod_pj_[j];
        const u64 ss = phat_inv_mod_pj_shoup_[j];
        const u64 *src = in.limb(j) + c0;
        u64 *dst = scratch + j;
        for (size_t c = 0; c < tile; ++c)
            dst[c * nb] = pj.mulShoup(src[c], s, ss);
    }

    // Matmul stage, blocked 2 output limbs x 2 coefficients: each
    // y[j] load feeds two rows' chains and each row load feeds two
    // coefficients' chains (the paper's BConvU streams the same
    // broadcast constant through parallel MAC lanes the same way), so
    // loads per product drop to ~0.5 and the four independent u128
    // chains hide the add-with-carry latency. Every coefficient's own
    // sum still accumulates in reference j order, and regrouping a
    // u128 sum whose true value fits 128 bits is exact — so the
    // result is bit-identical to the two-stage reference.
    auto tableRow = [&](size_t i, u64 *buf) -> const u64 * {
        // Copy the row to a small local buffer when it fits: the
        // compiler cannot prove base_table_ never aliases dst, and
        // the local copy keeps row loads out of the store-bounded
        // block loop. Wider bases (none of the shipped parameter
        // sets) read the table in place.
        const u64 *row = base_table_.data() + i * nb;
        if (nb > 32)
            return row;
        for (size_t j = 0; j < nb; ++j)
            buf[j] = row[j];
        return buf;
    };
    size_t i = 0;
    for (; i + 2 <= nc; i += 2) {
        const Modulus &q0 = out_base_[i];
        const Modulus &q1 = out_base_[i + 1];
        u64 b0[32], b1[32];
        const u64 *r0 = tableRow(i, b0);
        const u64 *r1 = tableRow(i + 1, b1);
        u64 *d0 = out.limb(i) + c0;
        u64 *d1 = out.limb(i + 1) + c0;
        size_t c = 0;
        for (; c + 2 <= tile; c += 2) {
            const u64 *y0 = scratch + c * nb;
            const u64 *y1 = y0 + nb;
            u128 a00 = 0, a01 = 0, a10 = 0, a11 = 0;
            for (size_t j = 0; j < nb; ++j) {
                const u64 w0 = y0[j], w1 = y1[j];
                a00 += static_cast<u128>(w0) * r0[j];
                a01 += static_cast<u128>(w1) * r0[j];
                a10 += static_cast<u128>(w0) * r1[j];
                a11 += static_cast<u128>(w1) * r1[j];
            }
            d0[c] = q0.reduce(a00);
            d0[c + 1] = q0.reduce(a01);
            d1[c] = q1.reduce(a10);
            d1[c + 1] = q1.reduce(a11);
        }
        for (; c < tile; ++c) {
            const u64 *y = scratch + c * nb;
            u128 a0 = 0, a1 = 0;
            for (size_t j = 0; j < nb; ++j) {
                a0 += static_cast<u128>(y[j]) * r0[j];
                a1 += static_cast<u128>(y[j]) * r1[j];
            }
            d0[c] = q0.reduce(a0);
            d1[c] = q1.reduce(a1);
        }
    }
    for (; i < nc; ++i) {
        const Modulus &qi = out_base_[i];
        u64 buf[32];
        const u64 *row = tableRow(i, buf);
        u64 *dst = out.limb(i) + c0;
        for (size_t c = 0; c < tile; ++c) {
            const u64 *y = scratch + c * nb;
            u128 acc = 0;
            for (size_t j = 0; j < nb; ++j)
                acc += static_cast<u128>(y[j]) * row[j];
            dst[c] = qi.reduce(acc);
        }
    }
}

} // namespace ark
