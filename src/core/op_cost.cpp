#include "core/op_cost.h"

#include <cmath>

#include "common/math_util.h"

namespace ark {

double
CostModel::nttLimb() const
{
    // N/2 butterflies per stage, log2 N stages; plus N twisting mults
    // in the 4-step organization (generated on the fly by OF-Twist but
    // still multiplied).
    const double n = static_cast<double>(p_.degree);
    return n / 2.0 * log2Exact(p_.degree) + n;
}

double
CostModel::bconv(size_t in_limbs, size_t out_limbs) const
{
    // Stage 1: one mult per input word (phat_j^-1); stage 2: the base
    // table matmul, in_limbs * out_limbs MACs per coefficient.
    const double n = static_cast<double>(p_.degree);
    return n * in_limbs +
           n * static_cast<double>(in_limbs) * out_limbs;
}

OpCost
CostModel::keySwitch(int level) const
{
    const int a = p_.alpha();
    const size_t nq = static_cast<size_t>(level) + 1;
    const size_t np = a;
    const int digits = (level + a) / a;
    const double n = static_cast<double>(p_.degree);

    OpCost c;
    for (int d = 0; d < digits; ++d) {
        const size_t lo = static_cast<size_t>(d) * a;
        const size_t hi = std::min(lo + a, nq);
        const size_t dig = hi - lo;
        const size_t ext = nq - dig + np;
        c.ntt += static_cast<double>(dig + ext) * nttLimb(); // INTT+NTT
        c.bconv += bconv(dig, ext);
    }
    // Multiply-accumulate with the evk: 2 output polys x digits
    // operands x (nq + np) limbs.
    c.evk_mult += 2.0 * digits * (nq + np) * n;
    // ModDown: INTT of np special limbs, BConv to nq, NTT back, plus
    // the subtract-and-scale pass (2 polys).
    c.ntt += 2.0 * (np + nq) * nttLimb();
    c.bconv += 2.0 * bconv(np, nq);
    c.other += 2.0 * nq * n;
    return c;
}

OpCost
CostModel::hrot(int level) const
{
    // Automorphism itself is a permutation (no mults); the cost is the
    // key switch plus the final additions (counted as "other" wiring).
    OpCost c = keySwitch(level);
    const double n = static_cast<double>(p_.degree);
    c.other += (level + 1) * n * 0.0; // permutation: zero mults
    return c;
}

OpCost
CostModel::pmult(int level, bool of_limb) const
{
    OpCost c;
    const double n = static_cast<double>(p_.degree);
    c.other += 2.0 * (level + 1) * n; // pointwise on both polys
    if (of_limb) {
        // Eq. 12: regenerate level limbs with one NTT each (the mod-q_i
        // reduction is a mult-free pass in hardware).
        c.ntt += static_cast<double>(level) * nttLimb();
    }
    return c;
}

OpCost
CostModel::rescale(int level) const
{
    OpCost c;
    const double n = static_cast<double>(p_.degree);
    // INTT of the dropped limb + NTT of its reduction into each
    // remaining limb (2 polys), plus the subtract-scale pass.
    c.ntt += 2.0 * (1 + level) * nttLimb();
    c.other += 2.0 * level * n;
    return c;
}

} // namespace ark
