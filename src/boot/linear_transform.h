/**
 * @file
 * Homomorphic linear transforms via BSGS diagonals, with the three key
 * schedules the paper compares (Fig. 1):
 *
 *  - Baseline: every baby/giant rotation uses its own evk (hoisted a la
 *    Halevi-Shoup for the baby steps) — Fig. 1(a) / Eq. 8.
 *  - MinimalKS: the strategy of [Halevi-Shoup 42]: iterate rotations so
 *    baby steps share one evk and giant steps share one evk, plus the
 *    pre-rotation key — Fig. 1(b).
 *  - MinKS: ARK's minimum key-switching — the pre-rotation is
 *    eliminated by folding it into the diagonal ordering, so each
 *    BSGS evaluation needs exactly TWO evks — Fig. 1(c).
 *
 * The transform computes M*z for a dense or strided complex matrix
 * acting on the slot vector, which covers both the single-shot
 * CoeffToSlot/SlotToCoeff of the functional bootstrapper and each
 * radix-2^k iteration of the FFT-like H-(I)DFT (Alg. 3).
 *
 * Both schedules build each giant-step inner sum sum_i rot_i(ct) *
 * w_{j,i} with one fused KernelBackend::plainMulSum call over the
 * stored diagonals: OF-Limb limbs are generated, NTT'd and consumed
 * per output limb, products accumulate unreduced, and neither the
 * plaintexts nor the per-diagonal products are materialized.
 */

#pragma once

#include <complex>
#include <optional>
#include <vector>

#include "boot/key_cache.h"
#include "boot/plaintext_store.h"
#include "ckks/encoder.h"
#include "ckks/evaluator.h"

namespace ark {

/** Key schedule selection (paper Fig. 1). */
enum class KeySchedule {
    Baseline,  ///< per-rotation evks, hoisted baby steps
    MinimalKS, ///< Halevi-Shoup iterative reuse (baby+giant+pre keys)
    MinKS,     ///< ARK: two evks per BSGS evaluation
};

/** Dense complex matrix on the slot space. */
struct SlotMatrix
{
    size_t n = 0;                      ///< slot count
    std::vector<Complex> data;         ///< row-major n x n

    Complex &at(size_t r, size_t c) { return data[r * n + c]; }
    Complex at(size_t r, size_t c) const { return data[r * n + c]; }

    static SlotMatrix identity(size_t n);
    /** Numerical inverse by Gaussian elimination (for W^-1). */
    SlotMatrix inverse() const;
    std::vector<Complex> apply(const std::vector<Complex> &v) const;
    SlotMatrix multiply(const SlotMatrix &o) const;
};

/** Statistics of one homomorphic transform evaluation. */
struct LtStats
{
    size_t rotations = 0;      ///< HRot count (key switches)
    size_t pmults = 0;         ///< plaintext multiplies
    size_t distinct_evks = 0;  ///< distinct rotation keys required
};

/**
 * One precompiled BSGS linear transform: plaintext diagonals encoded
 * into a PlaintextStore (optionally OF-Limb), applied with a chosen
 * key schedule.
 */
class LinearTransform
{
  public:
    /**
     * @param diag_stride rotation stride between adjacent diagonals
     *        (1 for a dense transform; 2^(k*s) for H-(I)DFT stage s).
     * @param scale encoding scale for the diagonals (0 = Delta).
     */
    LinearTransform(const CkksContext &ctx, const CkksEncoder &encoder,
                    const SlotMatrix &m, size_t diag_stride,
                    PlaintextMode pt_mode, double scale = 0);

    /** Apply to a ciphertext; appends one rescale (consumes 1 level). */
    Ciphertext apply(const CkksEvaluator &eval, const Ciphertext &ct,
                     KeySchedule sched, KeyCache &keys,
                     LtStats *stats = nullptr) const;

    size_t babySteps() const { return bs_; }
    size_t giantSteps() const { return gs_; }
    size_t numDiagonals() const { return n_; }
    const PlaintextStore &plaintexts() const { return store_; }

  private:
    Ciphertext applyBaseline(const CkksEvaluator &eval,
                             const Ciphertext &ct, KeyCache &keys,
                             LtStats *stats) const;
    Ciphertext applyIterative(const CkksEvaluator &eval,
                              const Ciphertext &ct, KeySchedule sched,
                              KeyCache &keys, LtStats *stats) const;
    /**
     * Giant step @p j's inner sum, sum_i babies[i] * w_{j,i} over the
     * nonzero diagonals, as one KernelBackend::plainMulSum call (adds
     * the term count to @p pmults); nullopt when every diagonal of the
     * step is zero.
     */
    std::optional<Ciphertext>
    innerSum(const std::vector<const Ciphertext *> &babies, size_t j,
             size_t &pmults) const;

    const CkksContext &ctx_;
    size_t n_;           ///< number of diagonals == slot count
    size_t stride_;
    size_t bs_, gs_;
    double scale_;
    PlaintextStore store_;      ///< pre-rotated diagonals, bs*gs entries
    std::vector<bool> nonzero_; ///< skip all-zero diagonals
};

} // namespace ark
