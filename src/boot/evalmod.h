/**
 * @file
 * EvalMod: homomorphic approximate modular reduction (paper Sec. II-D).
 *
 * After ModRaise the slot values are x = Pm/q0 + I with I a bounded
 * integer; EvalMod recovers the fractional part via the scaled sine
 *   x mod 1 ~= sin(2*pi*x) / (2*pi) = Im(exp(2*pi*i*x)) / (2*pi),
 * taking the sine as the imaginary part of a complex exponential
 * (Cheon, Han, Kim, Kim and Song, EUROCRYPT 2018).
 *
 * The exponential is evaluated as: (1) scale the angle down by 2^r,
 * y = 2*pi*x / 2^r, (2) evaluate the Taylor series of exp(i*y) in
 * w = i*y on the small range with a BSGS power basis, (3) square r
 * times (exp(2ia) = exp(ia)^2). Each squaring is one HMult and one
 * multiplicative level, with the same x2 error growth per step as a
 * sin/cos double-angle step that costs two HMults. The result is
 * complex; the caller takes its imaginary part (the bootstrapper
 * extracts both coefficient parts with one shared conjugation).
 *
 * All scalar linear combinations use scale-compensated constants (the
 * multiplier is c * target_scale / operand_scale), so heterogeneous
 * true scales never meet in an addition.
 */

#pragma once

#include "boot/key_cache.h"
#include "ckks/evaluator.h"

namespace ark {

/** Tuning knobs for the sine approximation. */
struct EvalModConfig
{
    int taylor_degree = 15; ///< degree of the exp(i*y) Taylor expansion
    int log_double_angle = 6; ///< r: number of squaring steps
};

/** Levels consumed by one EvalMod evaluation. */
int evalModDepth(const EvalModConfig &cfg, double arg_factor = 1.0);

/** Ciphertext-ciphertext multiplications (key switches) in one EvalMod. */
int evalModMults(const EvalModConfig &cfg);

/**
 * Scale-compensated linear combination: returns sum_i coeffs[i]*cts[i]
 * at scale exactly @p target_scale (no rescale applied). Inputs must
 * share a level; zero coefficients are skipped.
 */
Ciphertext linearCombination(const CkksEvaluator &eval,
                             const std::vector<const Ciphertext *> &cts,
                             const std::vector<double> &coeffs,
                             double target_scale);

/**
 * Evaluate f(x) = exp(2*pi*i*x*arg_factor)/(2*pi) on the real slot
 * values of @p ct, so Im f(x) = sin(2*pi*x*arg_factor)/(2*pi), which
 * is ~ (x*arg_factor mod 1) near integers, and Re f(x) =
 * cos(2*pi*x*arg_factor)/(2*pi). The 1/(2*pi) is folded into the
 * output scale (a free relabel). @p arg_factor carries the
 * Delta0/q0 message ratio during bootstrapping; when the combined
 * angle constant is small, it is split over two scalar
 * multiplications (one extra level) to preserve multiplier
 * resolution.
 */
Ciphertext evalMod(const CkksEvaluator &eval, const Ciphertext &ct,
                   const EvalKey &evk_mult, const EvalModConfig &cfg,
                   double arg_factor = 1.0);

/** Extra level consumed when the angle constant must be split. */
bool evalModSplitsAngle(const EvalModConfig &cfg, double arg_factor);

} // namespace ark
