#include "ckks/keygen.h"

#include <algorithm>

#include "common/logging.h"
#include "rns/automorphism.h"
#include "rns/backend.h"

namespace ark {

std::vector<RnsPoly>
expandSeededEvkA(const CkksContext &ctx, u64 seed)
{
    // docs/wire_format.md §6: one fresh Rng per key, digits in
    // ascending order, limbs in extended-basis order within a digit.
    // Any change here is a wire-format break.
    Rng rng(seed);
    const auto moduli = ctx.keyModuli(ctx.maxLevel());
    std::vector<RnsPoly> out;
    out.reserve(static_cast<size_t>(ctx.dnum()));
    for (int d = 0; d < ctx.dnum(); ++d) {
        RnsPoly p(ctx.degree(), moduli.size(), Rep::Eval);
        for (size_t l = 0; l < moduli.size(); ++l) {
            auto v = rng.uniformVector(ctx.degree(), moduli[l].value());
            std::copy(v.begin(), v.end(), p.limb(l));
        }
        out.push_back(std::move(p));
    }
    return out;
}

KeyGenerator::KeyGenerator(const CkksContext &ctx, Rng &rng)
    : ctx_(ctx), rng_(rng)
{
}

RnsPoly
KeyGenerator::uniformKeyPoly()
{
    const int L = ctx_.maxLevel();
    const auto moduli = ctx_.keyModuli(L);
    RnsPoly p(ctx_.degree(), moduli.size(), Rep::Eval);
    for (size_t l = 0; l < moduli.size(); ++l) {
        auto v = rng_.uniformVector(ctx_.degree(), moduli[l].value());
        std::copy(v.begin(), v.end(), p.limb(l));
    }
    return p;
}

RnsPoly
KeyGenerator::errorKeyPoly()
{
    const int L = ctx_.maxLevel();
    const auto moduli = ctx_.keyModuli(L);
    auto e = rng_.errorVector(ctx_.degree());
    RnsPoly p = polyFromSigned(e, moduli);
    ctx_.keyNttForward(p, L);
    return p;
}

SecretKey
KeyGenerator::secretKey()
{
    const int L = ctx_.maxLevel();
    const auto moduli = ctx_.keyModuli(L);
    auto coeffs = rng_.ternaryVector(ctx_.degree(),
                                     ctx_.params().hamming_weight);
    SecretKey sk;
    sk.s = polyFromSigned(coeffs, moduli);
    ctx_.keyNttForward(sk.s, L);
    return sk;
}

PublicKey
KeyGenerator::publicKey(const SecretKey &sk)
{
    const int L = ctx_.maxLevel();
    const auto q_moduli = ctx_.levelModuli(L);
    const size_t nq = q_moduli.size();
    const size_t n = ctx_.degree();
    KernelBackend &kb = ctx_.backend();

    PublicKey pk;
    pk.a = RnsPoly(n, nq, Rep::Eval);
    for (size_t l = 0; l < nq; ++l) {
        auto v = rng_.uniformVector(n, q_moduli[l].value());
        std::copy(v.begin(), v.end(), pk.a.limb(l));
    }
    auto e = rng_.errorVector(n);
    RnsPoly ep = polyFromSigned(e, q_moduli);
    kb.nttForward(ep, ctx_.qTables());

    // b = e - a*s over Q (the q limbs of sk come first).
    RnsPoly s(n, nq, Rep::Eval);
    for (size_t l = 0; l < nq; ++l)
        std::copy(sk.s.limb(l), sk.s.limb(l) + n, s.limb(l));
    RnsPoly as(n, nq, Rep::Eval);
    kb.mulEval(pk.a, s, q_moduli, as);
    pk.b = RnsPoly(n, nq, Rep::Eval);
    kb.sub(ep, as, q_moduli, pk.b);
    return pk;
}

EvalKey
KeyGenerator::makeEvk(const SecretKey &sk, const RnsPoly &s_prime,
                      const std::vector<RnsPoly> *seeded_a)
{
    const int L = ctx_.maxLevel();
    const auto moduli = ctx_.keyModuli(L);
    const size_t nq = static_cast<size_t>(L) + 1;
    const size_t n = ctx_.degree();
    KernelBackend &kb = ctx_.backend();

    EvalKey evk;
    for (int d = 0; d < ctx_.dnum(); ++d) {
        RnsPoly a = seeded_a != nullptr
                        ? (*seeded_a)[static_cast<size_t>(d)]
                        : uniformKeyPoly();
        RnsPoly e = errorKeyPoly();
        const auto &g = ctx_.gadget(d);

        // Payload constant P * g_d per limb; it vanishes mod the
        // special primes because P = prod(B) = 0 mod p_j.
        std::vector<u64> payload(moduli.size(), 0);
        for (size_t l = 0; l < nq; ++l)
            payload[l] = moduli[l].mul(ctx_.pModQ(l), g[l]);

        // b = (e - a*s) + (P * g_d) * s'.
        RnsPoly as(n, moduli.size(), Rep::Eval);
        kb.mulEval(a, sk.s, moduli, as);
        RnsPoly b(n, moduli.size(), Rep::Eval);
        kb.sub(e, as, moduli, b);
        RnsPoly pay(n, moduli.size(), Rep::Eval);
        kb.mulScalar(s_prime, payload, moduli, pay);
        kb.add(b, pay, moduli, b);

        evk.a.push_back(std::move(a));
        evk.b.push_back(std::move(b));
    }
    return evk;
}

EvalKey
KeyGenerator::evkMult(const SecretKey &sk)
{
    const auto moduli = ctx_.keyModuli(ctx_.maxLevel());
    RnsPoly s2(ctx_.degree(), moduli.size(), Rep::Eval);
    ctx_.backend().mulEval(sk.s, sk.s, moduli, s2);
    return makeEvk(sk, s2);
}

EvalKey
KeyGenerator::evkGalois(const SecretKey &sk, u64 galois_elt)
{
    const auto moduli = ctx_.keyModuli(ctx_.maxLevel());
    const Automorphism &am = ctx_.automorphism(galois_elt);
    RnsPoly sr = ctx_.backend().automorphism(am, sk.s, moduli);
    return makeEvk(sk, sr);
}

EvalKey
KeyGenerator::evkRotation(const SecretKey &sk, i64 r)
{
    return evkGalois(sk, galoisElt(r, ctx_.degree()));
}

EvalKey
KeyGenerator::evkConjugate(const SecretKey &sk)
{
    return evkGalois(sk, galoisEltConjugate(ctx_.degree()));
}

EvalKey
KeyGenerator::evkMultSeeded(const SecretKey &sk, u64 a_seed)
{
    const auto moduli = ctx_.keyModuli(ctx_.maxLevel());
    RnsPoly s2(ctx_.degree(), moduli.size(), Rep::Eval);
    ctx_.backend().mulEval(sk.s, sk.s, moduli, s2);
    const auto a = expandSeededEvkA(ctx_, a_seed);
    EvalKey evk = makeEvk(sk, s2, &a);
    evk.a_seed = a_seed;
    evk.seeded = true;
    return evk;
}

EvalKey
KeyGenerator::evkGaloisSeeded(const SecretKey &sk, u64 galois_elt,
                              u64 a_seed)
{
    const auto moduli = ctx_.keyModuli(ctx_.maxLevel());
    const Automorphism &am = ctx_.automorphism(galois_elt);
    RnsPoly sr = ctx_.backend().automorphism(am, sk.s, moduli);
    const auto a = expandSeededEvkA(ctx_, a_seed);
    EvalKey evk = makeEvk(sk, sr, &a);
    evk.a_seed = a_seed;
    evk.seeded = true;
    return evk;
}

EvalKey
KeyGenerator::evkRotationSeeded(const SecretKey &sk, i64 r, u64 a_seed)
{
    return evkGaloisSeeded(sk, galoisElt(r, ctx_.degree()), a_seed);
}

} // namespace ark
