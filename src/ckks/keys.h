/**
 * @file
 * Key material for CKKS: secret, public, and evaluation keys.
 *
 * An evaluation key (evk, paper Section II-C) for a source key s'
 * (s^2 for HMult, psi_r(s) for HRot) consists of dnum RLWE pairs over
 * the extended modulus P*Q: evk_d = (b_d, a_d) with
 * b_d = -a_d * s + e_d + P * g_d * s', where g_d is the RNS gadget
 * constant of digit d. Table III of the paper: one evk is 120 MiB at
 * the ARK parameters — the off-chip traffic Min-KS exists to avoid.
 */

#pragma once

#include <vector>

#include "rns/poly.h"

namespace ark {

/** Secret key in Eval representation over [q_0..q_L, p_0..p_alpha-1]. */
struct SecretKey
{
    RnsPoly s;
};

/** Public encryption key at max level (q limbs only, Eval rep). */
struct PublicKey
{
    RnsPoly b;
    RnsPoly a;
};

/**
 * Evaluation key: dnum pairs over the extended basis, Eval rep.
 *
 * When `seeded` is set, the uniform a_d halves were drawn from
 * Rng(a_seed) in the canonical digit-major, limb-major order
 * (docs/wire_format.md §6), so the wire layer ships only the seed and
 * the b halves. The in-memory key is always fully expanded; the seed
 * is carried so re-serialization stays compressed.
 */
struct EvalKey
{
    std::vector<RnsPoly> b;
    std::vector<RnsPoly> a;
    u64 a_seed = 0;
    bool seeded = false;

    size_t numDigits() const { return b.size(); }

    /** Bytes of key material (2 * dnum * (L+1+alpha) * N words). */
    size_t byteSize() const
    {
        size_t total = 0;
        for (const auto &p : b)
            total += p.byteSize();
        for (const auto &p : a)
            total += p.byteSize();
        return total;
    }
};

} // namespace ark
