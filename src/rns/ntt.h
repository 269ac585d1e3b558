/**
 * @file
 * Negacyclic number-theoretic transform over one RNS prime.
 *
 * Implements the in-place iterative NTT with Shoup-precomputed twiddle
 * factors: Cooley-Tukey butterflies (bit-reversed twiddles) for the
 * forward transform and Gentleman-Sande for the inverse, folding the
 * psi / psi^-1 powers into the twiddles so the transform is negacyclic
 * (multiplication in Z_q[X]/(X^N + 1)).
 *
 * The hot transforms use Harvey lazy reduction: forward butterfly
 * values stay in [0, 4q) (q < 2^62, so 4q fits a word) with no
 * per-butterfly conditional correction, and a single normalization
 * sweep at the end of the transform restores canonical [0, q) words.
 * The inverse keeps values in [0, 2q) and folds its normalization
 * into the final 1/N scaling pass. Outputs are bit-identical to the
 * fully-reduced reference butterflies (ark_test_support's strict pair;
 * tests/test_backend_parity.cpp enforces it), so the lazy pass is a
 * pure speedup.
 *
 * The forward transform maps the coefficient representation to the
 * evaluation representation (paper Section II-B); pointwise products in
 * the evaluation representation equal negacyclic convolutions of the
 * coefficient vectors.
 */

#pragma once

#include <cstddef>

#include <vector>

#include "rns/modulus.h"

namespace ark {

/** Precomputed tables for N-point negacyclic NTT mod one prime. */
class NttTables
{
  public:
    /**
     * @param degree power-of-two ring degree N.
     * @param modulus prime with modulus = 1 (mod 2N).
     */
    NttTables(size_t degree, Modulus modulus);

    size_t degree() const { return n_; }
    const Modulus &modulus() const { return q_; }

    /** psi, a primitive 2N-th root of unity mod q. */
    u64 psi() const { return psi_; }

    /** In-place forward negacyclic NTT (coeff -> eval, natural order). */
    void forward(u64 *data) const;

    /** In-place inverse negacyclic NTT (eval -> coeff, natural order). */
    void inverse(u64 *data) const;

    void forward(std::vector<u64> &data) const { forward(data.data()); }
    void inverse(std::vector<u64> &data) const { inverse(data.data()); }

    /// @name Raw table access for the SIMD kernel engine
    /// (rns/simd_kernels.cpp), which runs the same Harvey lazy
    /// butterflies lane-wise and needs the twiddles and their Shoup
    /// companions directly, and for the strict reference transforms
    /// in ark_test_support.
    /// @{
    const std::vector<u64> &rootPowers() const { return root_powers_; }
    const std::vector<u64> &rootPowersShoup() const
    {
        return root_powers_shoup_;
    }
    const std::vector<u64> &invRootPowers() const
    {
        return inv_root_powers_;
    }
    const std::vector<u64> &invRootPowersShoup() const
    {
        return inv_root_powers_shoup_;
    }
    u64 nInv() const { return n_inv_; }
    u64 nInvShoup() const { return n_inv_shoup_; }
    /** The last inverse stage's twiddle times 1/N
     *  (invRootPowers()[1] * nInv() mod q), so a vector inverse scales
     *  inside that stage instead of in a pass of its own. */
    u64 lastNInv() const { return last_n_inv_; }
    u64 lastNInvShoup() const { return last_n_inv_shoup_; }
    /// @}

  private:
    size_t n_;
    int log_n_;
    Modulus q_;
    u64 psi_;
    /** Powers of psi in bit-reversed order, plus Shoup companions. */
    std::vector<u64> root_powers_;
    std::vector<u64> root_powers_shoup_;
    /** Powers of psi^-1 in bit-reversed order, plus Shoup companions. */
    std::vector<u64> inv_root_powers_;
    std::vector<u64> inv_root_powers_shoup_;
    u64 n_inv_;
    u64 n_inv_shoup_;
    u64 last_n_inv_;
    u64 last_n_inv_shoup_;
};

} // namespace ark
