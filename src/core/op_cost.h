/**
 * @file
 * Analytical modular-multiplication counts for CKKS primary functions
 * and primitive HE ops (paper Section III / Fig. 4).
 *
 * Every HE op decomposes into (I)NTT, BConv, automorphism, and
 * element-wise functions; an accelerator's computational capability is
 * quantified by modular multipliers, so the cost model counts modular
 * mults per function. These counts drive both the Fig. 4 breakdown
 * (HRot composition vs dnum) and the cycle model's FU occupancy.
 */

#pragma once

#include <cstddef>

#include "ckks/params.h"

namespace ark {

/** Modular-mult counts of one HE op split by primary function. */
struct OpCost
{
    double ntt = 0;      ///< (I)NTT butterflies (one mult each)
    double bconv = 0;    ///< BConv MAC multiplies (both stages)
    double evk_mult = 0; ///< element-wise multiplies with evk polys
    double other = 0;    ///< automorphism-adjacent / misc elementwise

    double total() const { return ntt + bconv + evk_mult + other; }
};

/** Cost model bound to one parameter set. */
class CostModel
{
  public:
    explicit CostModel(const CkksParams &params) : p_(params) {}

    /** Mults for one forward or inverse NTT of a single limb. */
    double nttLimb() const;

    /** Mults for BConv from @p in_limbs to @p out_limbs (Eq. 4). */
    double bconv(size_t in_limbs, size_t out_limbs) const;

    /** Generalized key-switching (Alg. 2) at level @p level. */
    OpCost keySwitch(int level) const;

    /** HRot at level @p level (automorphism + key switch). */
    OpCost hrot(int level) const;

    /** PMult, optionally with OF-Limb limb extension NTTs. */
    OpCost pmult(int level, bool of_limb) const;

    /** HRescale at level @p level. */
    OpCost rescale(int level) const;

    const CkksParams &params() const { return p_; }

  private:
    CkksParams p_;
};

} // namespace ark
