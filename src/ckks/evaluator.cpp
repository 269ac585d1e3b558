#include "ckks/evaluator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "rns/automorphism.h"
#include "rns/backend.h"
#include "rns/bconv.h"

namespace ark {

CkksEvaluator::CkksEvaluator(const CkksContext &ctx) : ctx_(ctx) {}

void
CkksEvaluator::checkCompatible(const Ciphertext &c1,
                               const Ciphertext &c2) const
{
    ARK_ASSERT(c1.level() == c2.level(), "ciphertext level mismatch");
    const double ratio = c1.scale / c2.scale;
    ARK_ASSERT(ratio > 1.0 - 1e-6 && ratio < 1.0 + 1e-6,
               "ciphertext scale mismatch");
}

Ciphertext
CkksEvaluator::add(const Ciphertext &c1, const Ciphertext &c2) const
{
    checkCompatible(c1, c2);
    const auto moduli = ctx_.levelModuli(c1.level());
    KernelBackend &kb = ctx_.backend();
    Ciphertext r = c1;
    kb.add(c1.b, c2.b, moduli, r.b);
    kb.add(c1.a, c2.a, moduli, r.a);
    return r;
}

Ciphertext
CkksEvaluator::sub(const Ciphertext &c1, const Ciphertext &c2) const
{
    checkCompatible(c1, c2);
    const auto moduli = ctx_.levelModuli(c1.level());
    KernelBackend &kb = ctx_.backend();
    Ciphertext r = c1;
    kb.sub(c1.b, c2.b, moduli, r.b);
    kb.sub(c1.a, c2.a, moduli, r.a);
    return r;
}

Ciphertext
CkksEvaluator::negate(const Ciphertext &c) const
{
    const auto moduli = ctx_.levelModuli(c.level());
    KernelBackend &kb = ctx_.backend();
    Ciphertext r = c;
    kb.neg(c.b, moduli, r.b);
    kb.neg(c.a, moduli, r.a);
    return r;
}

Ciphertext
CkksEvaluator::addPlain(const Ciphertext &c, const Plaintext &p) const
{
    ARK_ASSERT(c.level() == p.level, "plaintext level mismatch");
    const double ratio = c.scale / p.scale;
    ARK_ASSERT(ratio > 1.0 - 1e-6 && ratio < 1.0 + 1e-6,
               "plaintext scale mismatch");
    const auto moduli = ctx_.levelModuli(c.level());
    Ciphertext r = c;
    ctx_.backend().add(c.b, p.poly, moduli, r.b);
    return r;
}

Ciphertext
CkksEvaluator::subPlain(const Ciphertext &c, const Plaintext &p) const
{
    ARK_ASSERT(c.level() == p.level, "plaintext level mismatch");
    const double ratio = c.scale / p.scale;
    ARK_ASSERT(ratio > 1.0 - 1e-6 && ratio < 1.0 + 1e-6,
               "plaintext scale mismatch");
    const auto moduli = ctx_.levelModuli(c.level());
    Ciphertext r = c;
    ctx_.backend().sub(c.b, p.poly, moduli, r.b);
    return r;
}

Ciphertext
CkksEvaluator::mulPlain(const Ciphertext &c, const Plaintext &p) const
{
    ARK_ASSERT(c.level() == p.level, "plaintext level mismatch");
    const auto moduli = ctx_.levelModuli(c.level());
    KernelBackend &kb = ctx_.backend();
    Ciphertext r = c;
    kb.mulEval(c.b, p.poly, moduli, r.b);
    kb.mulEval(c.a, p.poly, moduli, r.a);
    r.scale = c.scale * p.scale;
    return r;
}

Ciphertext
CkksEvaluator::addScalar(const Ciphertext &c, double value) const
{
    // A constant polynomial is constant in the evaluation
    // representation as well, so CAdd is one scalar add per limb word.
    // The constant is rounded to a single wide integer first so all
    // limbs carry residues of the same value (see roundToI128).
    const auto moduli = ctx_.levelModuli(c.level());
    std::vector<u64> residues(moduli.size());
    const i128 k =
        roundToI128(static_cast<long double>(value) * c.scale);
    for (size_t l = 0; l < moduli.size(); ++l)
        residues[l] = reduceI128(k, moduli[l].value());
    Ciphertext r = c;
    ctx_.backend().addScalar(c.b, residues, moduli, r.b);
    return r;
}

Ciphertext
CkksEvaluator::mulScalar(const Ciphertext &c, double value,
                         double scale) const
{
    if (scale == 0)
        scale = ctx_.params().scale();
    const auto moduli = ctx_.levelModuli(c.level());
    std::vector<u64> residues(moduli.size());
    const i128 k = roundToI128(static_cast<long double>(value) * scale);
    for (size_t l = 0; l < moduli.size(); ++l)
        residues[l] = reduceI128(k, moduli[l].value());
    KernelBackend &kb = ctx_.backend();
    Ciphertext r = c;
    kb.mulScalar(c.b, residues, moduli, r.b);
    kb.mulScalar(c.a, residues, moduli, r.a);
    r.scale = c.scale * scale;
    return r;
}

Ciphertext
CkksEvaluator::mulByI(const Ciphertext &c) const
{
    // i is the monomial X^{N/2}; multiplying by it is exact and
    // noise-free, one constant product per half-limb in Eval rep.
    // Pooled: mulByI writes every word of r.b / r.a.
    KernelBackend &kb = ctx_.backend();
    const size_t limbs = c.b.numLimbs();
    Ciphertext r;
    r.scale = c.scale;
    r.slots = c.slots;
    r.b = kb.pool().acquire(ctx_.degree(), limbs, Rep::Eval);
    r.a = kb.pool().acquire(ctx_.degree(), limbs, Rep::Eval);
    kb.mulByI(c.b, ctx_.qTables(), r.b);
    kb.mulByI(c.a, ctx_.qTables(), r.a);
    return r;
}

std::vector<RnsPoly>
CkksEvaluator::decompose(const RnsPoly &d, int level) const
{
    ARK_ASSERT(d.rep() == Rep::Eval, "decompose expects Eval rep");
    ARK_ASSERT(d.numLimbs() == static_cast<size_t>(level) + 1,
               "limb count must match level");
    const size_t n = ctx_.degree();
    const size_t nq = static_cast<size_t>(level) + 1;
    const size_t np = ctx_.pModuli().size();
    const int a = ctx_.alpha();
    const int digits = ctx_.numDigits(level);
    KernelBackend &kb = ctx_.backend();
    PolyPool &pool = kb.pool();

    std::vector<RnsPoly> out;
    out.reserve(digits);
    for (int dig = 0; dig < digits; ++dig) {
        const size_t lo = static_cast<size_t>(dig) * a;
        const size_t hi = std::min(lo + a, nq);

        // Pull the digit limbs, then run the whole BConvRoutine
        // (Alg. 1: INTT -> BConv -> NTT) as one fused backend call.
        // Pooled temporaries: every limb is copied over in full.
        RnsPoly digit = pool.acquire(n, hi - lo, Rep::Eval);
        for (size_t l = lo; l < hi; ++l)
            std::copy(d.limb(l), d.limb(l) + n, digit.limb(l - lo));

        std::vector<const NttTables *> in_tables(hi - lo);
        for (size_t l = lo; l < hi; ++l)
            in_tables[l - lo] = &ctx_.qTables()[l];
        std::vector<const NttTables *> out_tables;
        out_tables.reserve(nq - (hi - lo) + np);
        for (size_t l = 0; l < nq + np; ++l) {
            if (l < lo || l >= hi)
                out_tables.push_back(&ctx_.keyTable(l, level));
        }

        RnsPoly conv = kb.nttBconvNtt(
            digit, in_tables, ctx_.digitConverter(level, dig),
            out_tables);
        pool.release(std::move(digit));

        // Assemble the extended poly with limbs ordered
        // [q_0..q_level, p_0..p_alpha-1].
        RnsPoly ext = pool.acquire(n, nq + np, Rep::Eval);
        size_t conv_idx = 0;
        for (size_t l = 0; l < nq + np; ++l) {
            if (l >= lo && l < hi) {
                std::copy(d.limb(l), d.limb(l) + n, ext.limb(l));
            } else {
                std::copy(conv.limb(conv_idx),
                          conv.limb(conv_idx) + n, ext.limb(l));
                ++conv_idx;
            }
        }
        pool.release(std::move(conv));
        out.push_back(std::move(ext));
    }
    return out;
}

RnsPoly
CkksEvaluator::modDownByP(const RnsPoly &extended, int level) const
{
    ARK_ASSERT(extended.rep() == Rep::Eval, "ModDown expects Eval rep");
    const size_t n = ctx_.degree();
    const size_t nq = static_cast<size_t>(level) + 1;
    const size_t np = ctx_.pModuli().size();
    ARK_ASSERT(extended.numLimbs() == nq + np, "not an extended poly");
    KernelBackend &kb = ctx_.backend();
    PolyPool &pool = kb.pool();

    // INTT the special limbs, BConv B -> C, NTT back (Alg. 2 line 6-7)
    // — the same fused digit path key switching uses. Pooled
    // temporaries: special is copied over in full, out is written in
    // full by subMulScalar.
    RnsPoly special = pool.acquire(n, np, Rep::Eval);
    for (size_t l = 0; l < np; ++l)
        std::copy(extended.limb(nq + l), extended.limb(nq + l) + n,
                  special.limb(l));

    std::vector<const NttTables *> in_tables(np);
    for (size_t l = 0; l < np; ++l)
        in_tables[l] = &ctx_.pTables()[l];
    RnsPoly conv = kb.nttBconvNtt(special, in_tables,
                                  ctx_.modDownConverter(level),
                                  ctx_.qTablePtrs(nq));
    pool.release(std::move(special));

    // out = (extended - conv) * P^{-1} limb-wise over the q limbs.
    const auto moduli = ctx_.levelModuli(level);
    std::vector<u64> pinv(nq);
    for (size_t l = 0; l < nq; ++l)
        pinv[l] = ctx_.pInvModQ(l);
    RnsPoly out = pool.acquire(n, nq, Rep::Eval);
    kb.subMulScalar(extended, conv, pinv, moduli, out);
    pool.release(std::move(conv));
    return out;
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::keySwitchDigits(const std::vector<RnsPoly> &digits,
                               const EvalKey &evk, int level) const
{
    const size_t n = ctx_.degree();
    const size_t nq = static_cast<size_t>(level) + 1;
    const size_t np = ctx_.pModuli().size();
    const size_t full_nq = static_cast<size_t>(ctx_.maxLevel()) + 1;
    ARK_ASSERT(digits.size() <=
                   static_cast<size_t>(evk.numDigits()),
               "more digits than the evk provides");
    KernelBackend &kb = ctx_.backend();
    PolyPool &pool = kb.pool();

    // Pooled accumulators: evkMulAcc reads-modifies-writes, so these
    // must start cleared (acquireZeroed, not acquire).
    RnsPoly acc_b = pool.acquireZeroed(n, nq + np, Rep::Eval);
    RnsPoly acc_a = pool.acquireZeroed(n, nq + np, Rep::Eval);
    const auto key_moduli = ctx_.keyModuli(level);
    for (size_t dig = 0; dig < digits.size(); ++dig) {
        kb.evkMulAcc(digits[dig], evk.b[dig], evk.a[dig], nq, full_nq,
                     key_moduli, acc_b, acc_a);
    }
    auto r = std::make_pair(modDownByP(acc_b, level),
                            modDownByP(acc_a, level));
    pool.release(std::move(acc_b));
    pool.release(std::move(acc_a));
    return r;
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::keySwitch(const RnsPoly &d, const EvalKey &evk,
                         int level) const
{
    auto digits = decompose(d, level);
    auto r = keySwitchDigits(digits, evk, level);
    PolyPool &pool = ctx_.backend().pool();
    for (auto &dig : digits)
        pool.release(std::move(dig));
    return r;
}

Ciphertext
CkksEvaluator::mul(const Ciphertext &c1, const Ciphertext &c2,
                   const EvalKey &evk_mult) const
{
    // Multiplication only needs matching levels; the scales multiply.
    ARK_ASSERT(c1.level() == c2.level(), "ciphertext level mismatch");
    const int level = c1.level();
    const auto moduli = ctx_.levelModuli(level);
    const size_t n = ctx_.degree();
    const size_t nl = moduli.size();
    KernelBackend &kb = ctx_.backend();
    PolyPool &pool = kb.pool();

    // Pooled degree-2 temporaries: each is fully written by its first
    // mulEval before being read.
    RnsPoly d0 = pool.acquire(n, nl, Rep::Eval);
    RnsPoly d1 = pool.acquire(n, nl, Rep::Eval);
    RnsPoly d2 = pool.acquire(n, nl, Rep::Eval);
    kb.mulEval(c1.b, c2.b, moduli, d0);
    kb.mulEval(c1.a, c2.a, moduli, d2);
    // d1 = a1*b2 + a2*b1.
    kb.mulEval(c1.a, c2.b, moduli, d1);
    kb.mulAccEval(c2.a, c1.b, moduli, d1);

    auto [kb_poly, ka_poly] = keySwitch(d2, evk_mult, level);
    pool.release(std::move(d2));

    Ciphertext r;
    r.slots = c1.slots;
    r.scale = c1.scale * c2.scale;
    r.b = pool.acquire(n, nl, Rep::Eval);
    r.a = pool.acquire(n, nl, Rep::Eval);
    kb.add(d0, kb_poly, moduli, r.b);
    kb.add(d1, ka_poly, moduli, r.a);
    pool.release(std::move(d0));
    pool.release(std::move(d1));
    pool.release(std::move(kb_poly));
    pool.release(std::move(ka_poly));
    return r;
}

Ciphertext
CkksEvaluator::square(const Ciphertext &c, const EvalKey &evk_mult) const
{
    return mul(c, c, evk_mult);
}

Ciphertext
CkksEvaluator::rescale(const Ciphertext &c) const
{
    const int level = c.level();
    ARK_ASSERT(level >= 1, "cannot rescale at level 0");
    const auto moduli = ctx_.levelModuli(level);
    const size_t n = ctx_.degree();
    const Modulus &q_last = moduli.back();
    KernelBackend &kb = ctx_.backend();

    std::vector<u64> inv(level);
    for (int l = 0; l < level; ++l)
        inv[l] = ctx_.qLastInvModQ(level, l);

    PolyPool &pool = kb.pool();
    auto drop = [&](const RnsPoly &src) {
        // INTT the last limb, embed its centered residues into each
        // remaining limb, and multiply by q_last^{-1} (floor division
        // in RNS). Pooled temporaries: limbEmbed and subMulScalar
        // write every word of tmp / out.
        std::vector<u64> last(src.limb(level), src.limb(level) + n);
        kb.nttInverseLimb(last.data(), ctx_.qTables()[level]);

        RnsPoly tmp = pool.acquire(n, level, Rep::Coeff);
        kb.limbEmbed(last, q_last, moduli, tmp);
        kb.nttForward(tmp, ctx_.qTablePtrs(level));

        RnsPoly out = pool.acquire(n, level, Rep::Eval);
        kb.subMulScalar(src, tmp, inv, moduli, out);
        pool.release(std::move(tmp));
        return out;
    };

    Ciphertext r;
    r.slots = c.slots;
    r.scale = c.scale / static_cast<double>(q_last.value());
    r.b = drop(c.b);
    r.a = drop(c.a);
    return r;
}

Ciphertext
CkksEvaluator::modDownTo(const Ciphertext &c, int level) const
{
    ARK_ASSERT(level <= c.level(), "modDownTo cannot raise the level");
    Ciphertext r = c;
    r.b.resizeLimbs(level + 1);
    r.a.resizeLimbs(level + 1);
    return r;
}

Ciphertext
CkksEvaluator::applyGalois(const Ciphertext &c, u64 galois_elt,
                           const EvalKey &evk) const
{
    const int level = c.level();
    const auto moduli = ctx_.levelModuli(level);
    const Automorphism &am = ctx_.automorphism(galois_elt);
    KernelBackend &kbe = ctx_.backend();
    PolyPool &pool = kbe.pool();

    RnsPoly b_rot = kbe.automorphism(am, c.b, moduli);
    RnsPoly a_rot = kbe.automorphism(am, c.a, moduli);
    auto [kb, ka] = keySwitch(a_rot, evk, level);
    pool.release(std::move(a_rot));

    Ciphertext r;
    r.slots = c.slots;
    r.scale = c.scale;
    r.b = pool.acquire(ctx_.degree(), moduli.size(), Rep::Eval);
    kbe.add(b_rot, kb, moduli, r.b);
    pool.release(std::move(b_rot));
    pool.release(std::move(kb));
    r.a = std::move(ka);
    return r;
}

Ciphertext
CkksEvaluator::rotate(const Ciphertext &c, i64 r,
                      const EvalKey &evk_rot) const
{
    return applyGalois(c, galoisElt(r, ctx_.degree()), evk_rot);
}

Ciphertext
CkksEvaluator::conjugate(const Ciphertext &c,
                         const EvalKey &evk_conj) const
{
    return applyGalois(c, galoisEltConjugate(ctx_.degree()), evk_conj);
}

std::vector<Ciphertext>
CkksEvaluator::rotateHoisted(const Ciphertext &c,
                             const std::vector<i64> &rotations,
                             const std::vector<const EvalKey *> &evks) const
{
    ARK_ASSERT(rotations.size() == evks.size(),
               "one evk required per rotation amount");
    const int level = c.level();
    const auto moduli = ctx_.levelModuli(level);
    const auto key_moduli = ctx_.keyModuli(level);
    KernelBackend &kbe = ctx_.backend();

    // Hoisting: decompose once; the automorphism commutes with the
    // digit extension, so each rotation only permutes the digits.
    auto digits = decompose(c.a, level);
    PolyPool &pool = kbe.pool();

    std::vector<Ciphertext> out;
    out.reserve(rotations.size());
    for (size_t k = 0; k < rotations.size(); ++k) {
        const u64 g = galoisElt(rotations[k], ctx_.degree());
        const Automorphism &am = ctx_.automorphism(g);

        std::vector<RnsPoly> rot_digits;
        rot_digits.reserve(digits.size());
        for (const auto &dig : digits)
            rot_digits.push_back(kbe.automorphism(am, dig, key_moduli));

        auto [kb, ka] = keySwitchDigits(rot_digits, *evks[k], level);
        for (auto &dig : rot_digits)
            pool.release(std::move(dig));
        RnsPoly b_rot = kbe.automorphism(am, c.b, moduli);

        Ciphertext r;
        r.slots = c.slots;
        r.scale = c.scale;
        r.b = pool.acquire(ctx_.degree(), moduli.size(), Rep::Eval);
        kbe.add(b_rot, kb, moduli, r.b);
        pool.release(std::move(b_rot));
        pool.release(std::move(kb));
        r.a = std::move(ka);
        out.push_back(std::move(r));
    }
    for (auto &dig : digits)
        pool.release(std::move(dig));
    return out;
}

Ciphertext
CkksEvaluator::modRaise(const Ciphertext &c) const
{
    ARK_ASSERT(c.level() == 0, "ModRaise expects a level-0 ciphertext");
    const int L = ctx_.maxLevel();
    const auto moduli = ctx_.levelModuli(L);
    const size_t n = ctx_.degree();
    const Modulus &q0 = ctx_.qModuli()[0];
    KernelBackend &kb = ctx_.backend();

    auto raise = [&](const RnsPoly &src) {
        std::vector<u64> coeffs(src.limb(0), src.limb(0) + n);
        kb.nttInverseLimb(coeffs.data(), ctx_.qTables()[0]);

        // Center mod q0 and embed into every limb of the full chain
        // (limbEmbed writes every word of the pooled buffer).
        RnsPoly out = kb.pool().acquire(n, L + 1, Rep::Coeff);
        kb.limbEmbed(coeffs, q0, moduli, out);
        kb.nttForward(out, ctx_.qTables());
        return out;
    };

    Ciphertext r;
    r.slots = c.slots;
    r.scale = c.scale;
    r.b = raise(c.b);
    r.a = raise(c.a);
    return r;
}

} // namespace ark
