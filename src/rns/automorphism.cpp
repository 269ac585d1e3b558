#include "rns/automorphism.h"

#include "common/logging.h"
#include "common/math_util.h"

namespace ark {

u64
galoisElt(i64 r, size_t degree)
{
    const u64 m = 2 * degree;
    // Order of 5 in Z_2N^* is N/2, so rotation amounts live mod N/2.
    const u64 order = degree / 2;
    u64 rr = ((r % static_cast<i64>(order)) + static_cast<i64>(order)) %
             static_cast<i64>(order);
    return powMod(5, rr, m);
}

u64
galoisEltConjugate(size_t degree)
{
    return 2 * degree - 1;
}

Automorphism::Automorphism(u64 galois_elt, size_t degree)
    : g_(galois_elt), n_(degree)
{
    ARK_ASSERT((galois_elt & 1) == 1 && galois_elt < 2 * degree,
               "Galois element must be odd and < 2N");
    const u64 m = 2 * degree;
    const int log_n = log2Exact(degree);

    coeff_index_.resize(n_);
    coeff_negate_.resize(n_);
    for (size_t i = 0; i < n_; ++i) {
        u64 j = (static_cast<u128>(i) * g_) % m;
        coeff_index_[i] = static_cast<u32>(j & (degree - 1));
        coeff_negate_[i] = j >= degree ? 1 : 0;
    }

    // Evaluation order: position i of the NTT output holds the value
    // of the polynomial at psi^{o(i)} with o(i) = 2*bitrev(i) + 1.
    // (psi_g P)(psi^{o(j)}) = P(psi^{o(j)*g mod 2N}), so the source
    // position is o^{-1}(o(j) * g mod 2N).
    eval_source_.resize(n_);
    for (size_t j = 0; j < n_; ++j) {
        u64 oj = 2 * bitReverse(j, log_n) + 1;
        u64 src_pt = (static_cast<u128>(oj) * g_) % m;
        u64 src_idx = bitReverse((src_pt - 1) / 2, log_n);
        eval_source_[j] = static_cast<u32>(src_idx);
    }
}

void
Automorphism::applyCoeff(const u64 *in, u64 *out, const Modulus &q) const
{
    const u64 qv = q.value();
    for (size_t i = 0; i < n_; ++i) {
        u64 v = in[i];
        if (coeff_negate_[i])
            v = v == 0 ? 0 : qv - v;
        out[coeff_index_[i]] = v;
    }
}

void
Automorphism::applyEval(const u64 *in, u64 *out) const
{
    for (size_t j = 0; j < n_; ++j)
        out[j] = in[eval_source_[j]];
}

} // namespace ark
