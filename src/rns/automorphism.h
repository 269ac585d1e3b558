/**
 * @file
 * Galois automorphisms psi_r : X -> X^(5^r) on ring polynomials.
 *
 * HRot rotates message slots by applying an automorphism to the
 * ciphertext polynomials (paper Eq. 5) followed by key-switching. In
 * the coefficient representation the map sends coefficient i to
 * position (i * g mod N) with a sign flip when i * g mod 2N >= N.
 * In the evaluation representation it is a pure permutation of the
 * evaluation points (which ARK's AutoU implements as 8 stages of
 * recursive internal permutations).
 */

#pragma once

#include <cstddef>

#include <vector>

#include "rns/poly.h"

namespace ark {

/** Galois element for rotation by r slots: 5^r mod 2N (r may be negative
 *  meaning rotate right). */
u64 galoisElt(i64 r, size_t degree);

/** Galois element for complex conjugation: 2N - 1. */
u64 galoisEltConjugate(size_t degree);

/**
 * Precomputed automorphism for one Galois element over degree-N rings.
 * Holds the coefficient-domain index/sign map and the evaluation-domain
 * permutation for the bit-reversed NTT ordering used by NttTables.
 */
class Automorphism
{
  public:
    Automorphism(u64 galois_elt, size_t degree);

    u64 galoisElt() const { return g_; }

    /** Apply to a polynomial in Coeff rep (out-of-place). */
    void applyCoeff(const u64 *in, u64 *out, const Modulus &q) const;

    /** Apply to a polynomial in Eval rep (out-of-place, permutation). */
    void applyEval(const u64 *in, u64 *out) const;

  private:
    u64 g_;
    size_t n_;
    /** Coeff rep: input i maps to coeff_index_[i], negated if flag set. */
    std::vector<u32> coeff_index_;
    std::vector<u8> coeff_negate_;
    /** Eval rep: out[j] = in[eval_source_[j]]. */
    std::vector<u32> eval_source_;
};

} // namespace ark
