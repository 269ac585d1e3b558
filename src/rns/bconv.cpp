#include "rns/bconv.h"

#include <algorithm>

#include "common/logging.h"

namespace ark {

BaseConverter::BaseConverter(std::vector<Modulus> in_base,
                             std::vector<Modulus> out_base)
    : in_base_(std::move(in_base)), out_base_(std::move(out_base))
{
    const size_t nb = in_base_.size();
    const size_t nc = out_base_.size();
    ARK_ASSERT(nb > 0 && nc > 0, "empty base");
    // Accumulating up to 256 products of two <2^60 words stays inside
    // 128 bits; all ARK parameter sets have |B| <= 30 input limbs.
    // Also guarantees tileCoeffs() >= 8.
    ARK_ASSERT(nb <= kMaxInLimbs,
               "too many input limbs for lazy accumulation");
    tile_coeffs_ = std::max<size_t>(kTileWords / nb, 1) & ~size_t(7);
    tile_coeffs_ = std::max<size_t>(tile_coeffs_, 8);

    phat_inv_mod_pj_.resize(nb);
    phat_inv_mod_pj_shoup_.resize(nb);
    base_table_.resize(nc * nb);

    for (size_t j = 0; j < nb; ++j) {
        const Modulus &pj = in_base_[j];
        // phat_j mod p_j = prod_{k != j} p_k mod p_j.
        u64 phat_mod_pj = 1;
        for (size_t k = 0; k < nb; ++k) {
            if (k != j)
                phat_mod_pj = pj.mul(phat_mod_pj, in_base_[k].value() %
                                                      pj.value());
        }
        u64 inv = pj.inv(phat_mod_pj);
        phat_inv_mod_pj_[j] = inv;
        phat_inv_mod_pj_shoup_[j] = pj.shoupPrecompute(inv);

        for (size_t i = 0; i < nc; ++i) {
            const Modulus &qi = out_base_[i];
            u64 phat_mod_qi = 1;
            for (size_t k = 0; k < nb; ++k) {
                if (k != j)
                    phat_mod_qi = qi.mul(phat_mod_qi,
                                         in_base_[k].value() % qi.value());
            }
            base_table_[i * nb + j] = phat_mod_qi;
        }
    }
}

} // namespace ark
