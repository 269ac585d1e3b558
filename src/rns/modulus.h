/**
 * @file
 * A word-sized prime modulus with precomputed reduction constants.
 *
 * Each RNS limb of a CKKS polynomial lives in Z_q for one prime q held
 * in a Modulus. The hot loops use two reduction strategies, mirroring
 * the FU implementations in the paper (Section VI): Montgomery-style
 * constant-time reduction inside the NTT/BConv pipelines is modeled
 * here by Shoup multiplication (precomputed quotient word per constant
 * operand), and Barrett reduction for general products in the MADUs.
 */

#pragma once

#include "common/math_util.h"
#include "common/types.h"

namespace ark {

/**
 * A prime modulus q < 2^62 plus reduction precomputation (4q must fit
 * a word for the lazy butterfly domain). The vector NTT bodies take
 * q < 2^60 and the IFMA kernels q < 2^50; wider limbs run the scalar
 * or AVX-512 code (rns/simd_kernels.h).
 */
class Modulus
{
  public:
    Modulus() = default;
    explicit Modulus(u64 q);

    u64 value() const { return q_; }
    int bits() const { return bits_; }

    /**
     * Barrett reduction of a 128-bit value to [0, q). Inline: every
     * element-wise product (mul) reduces through it, so an
     * out-of-line call per word would dominate those loops.
     */
    u64 reduce(u128 x) const
    {
        // q_est = floor(x * floor(2^128/q) / 2^128), computed exactly:
        // the dropped low word of lo_lo cannot carry into bit 128.
        const u64 x_lo = static_cast<u64>(x);
        const u64 x_hi = static_cast<u64>(x >> 64);

        // 256-bit product (x_hi:x_lo) * (barrett_hi_:barrett_lo_) >> 128.
        const u128 lo_lo = static_cast<u128>(x_lo) * barrett_lo_;
        const u128 lo_hi = static_cast<u128>(x_lo) * barrett_hi_;
        const u128 hi_lo = static_cast<u128>(x_hi) * barrett_lo_;
        const u128 hi_hi = static_cast<u128>(x_hi) * barrett_hi_;

        const u128 mid = (lo_lo >> 64) + static_cast<u64>(lo_hi) +
                         static_cast<u64>(hi_lo);
        const u128 q_est =
            hi_hi + (lo_hi >> 64) + (hi_lo >> 64) + (mid >> 64);

        // floor(2^128/q) = 2^128/q - e with 0 < e < 1 (q is not a power
        // of two), so x * floor(2^128/q) / 2^128 = x/q - x*e/2^128 lies
        // in (x/q - 1, x/q] for x < 2^128: q_est is floor(x/q) or one
        // less, and the remainder x - q_est * q is in [0, 2q). It fits
        // a word, so the correction runs in 64-bit arithmetic: mod-2^64
        // truncation of both operands preserves the value.
        const u64 r = x_lo - static_cast<u64>(q_est) * q_;
        return r >= q_ ? r - q_ : r;
    }

    /**
     * One-word Barrett: @p v mod q for any 64-bit @p v, with the
     * quotient estimate mulhi(v, floor(2^64 / q)) (barrettHi()). The
     * estimate is low by at most 1, so one conditional subtract
     * finishes; bit-identical to v % q without the hardware divide.
     */
    u64 reduceWord(u64 v) const
    {
        const u64 quot =
            static_cast<u64>((static_cast<u128>(v) * barrett_hi_) >> 64);
        const u64 r = v - quot * q_;
        return r >= q_ ? r - q_ : r;
    }

    /** (a * b) mod q via Barrett. */
    u64 mul(u64 a, u64 b) const
    {
        return reduce(static_cast<u128>(a) * b);
    }

    u64 add(u64 a, u64 b) const { return addMod(a, b, q_); }
    u64 sub(u64 a, u64 b) const { return subMod(a, b, q_); }
    u64 neg(u64 a) const { return a == 0 ? 0 : q_ - a; }
    u64 pow(u64 a, u64 e) const { return powMod(a, e, q_); }
    u64 inv(u64 a) const { return invMod(a, q_); }

    /**
     * Precompute the Shoup quotient word for a constant operand:
     * floor(w * 2^64 / q). Enables mulShoup below.
     */
    u64 shoupPrecompute(u64 w) const
    {
        return static_cast<u64>((static_cast<u128>(w) << 64) / q_);
    }

    /**
     * (x * w) mod q where @p w_shoup = shoupPrecompute(w).
     * One mulhi + one mullo + one conditional subtract; this is the
     * butterfly-speed path used throughout the NTT.
     */
    u64 mulShoup(u64 x, u64 w, u64 w_shoup) const
    {
        u64 r = mulShoupLazy(x, w, w_shoup);
        return r >= q_ ? r - q_ : r;
    }

    /**
     * Lazy Shoup product: congruent to x * w mod q but only reduced
     * into [0, 2q) — the conditional correction of mulShoup is left
     * to the caller's final normalization sweep. Valid for any
     * 64-bit @p x (including lazy [0, 4q) butterfly values, since
     * 4q < 2^64) and w < q; this is the Harvey-NTT butterfly
     * multiplier (paper Section VI's Montgomery-pipeline analogue).
     */
    u64 mulShoupLazy(u64 x, u64 w, u64 w_shoup) const
    {
        u64 hi = static_cast<u64>((static_cast<u128>(x) * w_shoup) >> 64);
        return x * w - hi * q_;
    }

    /** 2q, the lazy-domain half-bound (4q fits a word: q < 2^62). */
    u64 twoQ() const { return 2 * q_; }

    /** Normalize a lazy butterfly value in [0, 4q) to canonical [0, q). */
    u64 reduceLazy4q(u64 v) const
    {
        if (v >= 2 * q_)
            v -= 2 * q_;
        return v >= q_ ? v - q_ : v;
    }

    /// @name Barrett constant words (floor(2^128 / q)), exposed so the
    /// SIMD kernel engine can mirror reduce() lane-wise bit for bit.
    /// @{
    u64 barrettHi() const { return barrett_hi_; }
    u64 barrettLo() const { return barrett_lo_; }
    /** floor(2^(bits() + 50) / q), the quotient constant of the IFMA
     *  kernels' 52-bit Barrett product (below 2^52 for any q). */
    u64 barrett52() const { return barrett52_; }
    /** 2^(52 e) mod q for e = 0, 1, 2: the column weights of the IFMA
     *  kernels' 52-bit fold reduce. */
    u64 pow52(int e) const { return pow52_[e]; }
    /** floor(pow52(e) * 2^52 / q), its 52-bit Shoup word (below 2^52
     *  for any q). */
    u64 pow52Shoup(int e) const { return pow52_shoup_[e]; }
    /// @}

    bool operator==(const Modulus &o) const { return q_ == o.q_; }

  private:
    u64 q_ = 0;
    int bits_ = 0;
    /** Barrett constant: floor(2^128 / q), stored as hi/lo words. */
    u64 barrett_hi_ = 0;
    u64 barrett_lo_ = 0;
    u64 barrett52_ = 0;
    u64 pow52_[3] = {};
    u64 pow52_shoup_[3] = {};
};

} // namespace ark
