#include "rns/backend.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "common/env.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "rns/simd_kernels.h"

namespace ark {

/**
 * One thread's private tally block. Only the owning thread writes it
 * (via relaxed fetch_add, so a concurrent stats() merge is race-free);
 * every other thread only reads. Shards live as long as the backend.
 */
struct KernelBackend::StatsShard
{
    struct Counter
    {
        std::atomic<u64> calls{0};
        std::atomic<u64> limbs{0};
        std::atomic<u64> words{0};
        std::atomic<u64> mults{0};
    };

    std::array<Counter, kNumKernelOps> counters{};
    std::atomic<u64> evk_words{0};
    std::atomic<u64> plaintext_words{0};
};

namespace {

void
checkBinary(const RnsPoly &a, const RnsPoly &b,
            const std::vector<Modulus> &moduli, const RnsPoly &r)
{
    ARK_ASSERT(a.sameShape(b) && a.sameShape(r),
               "operand shape mismatch");
    ARK_ASSERT(a.rep() == b.rep(), "operand representation mismatch");
    ARK_ASSERT(moduli.size() >= a.numLimbs(), "not enough moduli");
}

/** Butterfly mult count of one N-point (I)NTT limb. */
u64
nttMults(size_t n)
{
    u64 m = 0;
    for (size_t s = n; s > 1; s >>= 1)
        ++m;
    return static_cast<u64>(n / 2) * m;
}

} // namespace

template <typename Fn>
void
KernelBackend::run(size_t jobs, const Fn &fn) const
{
    if (executor_ == nullptr) {
        for (size_t i = 0; i < jobs; ++i)
            fn(i);
        return;
    }
    executor_->parallelFor(jobs, fn);
}

// ---------------------------------------------------------------------------
// Element-wise limb kernels. Each job runs one limb through the kernel
// table's entry (or a plain loop for neg and addScalar); the executor
// (run) only decides how limb jobs map onto threads, hence bit-exact
// parity across executors.
// ---------------------------------------------------------------------------

void
KernelBackend::add(const RnsPoly &a, const RnsPoly &b,
                   const std::vector<Modulus> &moduli, RnsPoly &r)
{
    checkBinary(a, b, moduli, r);
    const size_t n = a.degree();
    recordStats(KernelOp::Add, a.numLimbs(), 3 * a.numLimbs() * n, 0);
    run(a.numLimbs(), [&](size_t l) {
        kernels_.add_limb(moduli[l], a.limb(l), b.limb(l), r.limb(l), n);
    });
    r.setRep(a.rep());
}

void
KernelBackend::sub(const RnsPoly &a, const RnsPoly &b,
                   const std::vector<Modulus> &moduli, RnsPoly &r)
{
    checkBinary(a, b, moduli, r);
    const size_t n = a.degree();
    recordStats(KernelOp::Sub, a.numLimbs(), 3 * a.numLimbs() * n, 0);
    run(a.numLimbs(), [&](size_t l) {
        kernels_.sub_limb(moduli[l], a.limb(l), b.limb(l), r.limb(l), n);
    });
    r.setRep(a.rep());
}

void
KernelBackend::neg(const RnsPoly &a, const std::vector<Modulus> &moduli,
                   RnsPoly &r)
{
    ARK_ASSERT(a.sameShape(r), "operand shape mismatch");
    const size_t n = a.degree();
    recordStats(KernelOp::Neg, a.numLimbs(), 2 * a.numLimbs() * n, 0);
    run(a.numLimbs(), [&](size_t l) {
        const u64 q = moduli[l].value();
        const u64 *pa = a.limb(l);
        u64 *pr = r.limb(l);
        for (size_t i = 0; i < n; ++i)
            pr[i] = pa[i] == 0 ? 0 : q - pa[i];
    });
    r.setRep(a.rep());
}

void
KernelBackend::mulEval(const RnsPoly &a, const RnsPoly &b,
                       const std::vector<Modulus> &moduli, RnsPoly &r)
{
    checkBinary(a, b, moduli, r);
    ARK_ASSERT(a.rep() == Rep::Eval,
               "pointwise multiply requires evaluation representation");
    const size_t n = a.degree();
    recordStats(KernelOp::MulEval, a.numLimbs(),
                  3 * a.numLimbs() * n, a.numLimbs() * n);
    run(a.numLimbs(), [&](size_t l) {
        kernels_.mul_eval_limb(moduli[l], a.limb(l), b.limb(l), r.limb(l),
                               n);
    });
    r.setRep(Rep::Eval);
}

void
KernelBackend::mulAccEval(const RnsPoly &a, const RnsPoly &b,
                          const std::vector<Modulus> &moduli, RnsPoly &r)
{
    checkBinary(a, b, moduli, r);
    ARK_ASSERT(a.rep() == Rep::Eval && r.rep() == Rep::Eval,
               "MAC requires evaluation representation");
    const size_t n = a.degree();
    recordStats(KernelOp::MulAccEval, a.numLimbs(),
                  4 * a.numLimbs() * n, a.numLimbs() * n);
    run(a.numLimbs(), [&](size_t l) {
        kernels_.mul_acc_limb(moduli[l], a.limb(l), b.limb(l), r.limb(l),
                              n);
    });
}

void
KernelBackend::mulScalar(const RnsPoly &a,
                         const std::vector<u64> &scalar_per_limb,
                         const std::vector<Modulus> &moduli, RnsPoly &r)
{
    ARK_ASSERT(a.sameShape(r), "operand shape mismatch");
    ARK_ASSERT(scalar_per_limb.size() >= a.numLimbs(), "missing scalars");
    const size_t n = a.degree();
    recordStats(KernelOp::MulScalar, a.numLimbs(),
                  2 * a.numLimbs() * n, a.numLimbs() * n);
    run(a.numLimbs(), [&](size_t l) {
        kernels_.mul_scalar_limb(moduli[l], a.limb(l), nullptr,
                                 scalar_per_limb[l], r.limb(l), n);
    });
    r.setRep(a.rep());
}

void
KernelBackend::addScalar(const RnsPoly &a,
                         const std::vector<u64> &scalar_per_limb,
                         const std::vector<Modulus> &moduli, RnsPoly &r)
{
    ARK_ASSERT(a.sameShape(r), "operand shape mismatch");
    const size_t n = a.degree();
    recordStats(KernelOp::AddScalar, a.numLimbs(),
                  2 * a.numLimbs() * n, 0);
    run(a.numLimbs(), [&](size_t l) {
        const u64 q = moduli[l].value();
        const u64 s = scalar_per_limb[l];
        const u64 *pa = a.limb(l);
        u64 *pr = r.limb(l);
        for (size_t i = 0; i < n; ++i)
            pr[i] = addMod(pa[i], s, q);
    });
    r.setRep(a.rep());
}

void
KernelBackend::subMulScalar(const RnsPoly &a, const RnsPoly &b,
                            const std::vector<u64> &scalar_per_limb,
                            const std::vector<Modulus> &moduli, RnsPoly &r)
{
    const size_t limbs = r.numLimbs();
    ARK_ASSERT(a.numLimbs() >= limbs && b.numLimbs() >= limbs,
               "operands carry fewer limbs than the result");
    ARK_ASSERT(a.degree() == r.degree() && b.degree() == r.degree(),
               "degree mismatch");
    ARK_ASSERT(a.rep() == b.rep(), "operand representation mismatch");
    ARK_ASSERT(scalar_per_limb.size() >= limbs && moduli.size() >= limbs,
               "missing scalars or moduli");
    const size_t n = r.degree();
    recordStats(KernelOp::SubMulScalar, limbs, 3 * limbs * n,
                  limbs * n);
    run(limbs, [&](size_t l) {
        kernels_.mul_scalar_limb(moduli[l], a.limb(l), b.limb(l),
                                 scalar_per_limb[l], r.limb(l), n);
    });
    r.setRep(a.rep());
}

void
KernelBackend::mulByI(const RnsPoly &a, const std::vector<NttTables> &tables,
                      RnsPoly &r)
{
    ARK_ASSERT(a.sameShape(r), "operand shape mismatch");
    ARK_ASSERT(a.rep() == Rep::Eval, "mulByI needs the Eval rep");
    ARK_ASSERT(tables.size() >= a.numLimbs(), "not enough NTT tables");
    const size_t n = a.degree();
    const size_t half = n / 2;
    recordStats(KernelOp::MonomialMul, a.numLimbs(),
                2 * a.numLimbs() * n, a.numLimbs() * n);
    run(a.numLimbs(), [&](size_t l) {
        // rootPowers()[1] = psi^{bitrev(1)} = psi^{N/2}.
        const Modulus &q = tables[l].modulus();
        const u64 i_l = tables[l].rootPowers()[1];
        kernels_.mul_scalar_limb(q, a.limb(l), nullptr, i_l, r.limb(l),
                                 half);
        kernels_.mul_scalar_limb(q, a.limb(l) + half, nullptr, q.neg(i_l),
                                 r.limb(l) + half, half);
    });
    r.setRep(Rep::Eval);
}

void
KernelBackend::limbEmbed(const std::vector<u64> &src, const Modulus &src_q,
                         const std::vector<Modulus> &out_moduli,
                         RnsPoly &out)
{
    const size_t n = out.degree();
    ARK_ASSERT(src.size() == n, "source limb length mismatch");
    ARK_ASSERT(out_moduli.size() >= out.numLimbs(), "not enough moduli");
    ARK_ASSERT(out.rep() == Rep::Coeff, "limbEmbed produces Coeff rep");
    recordStats(KernelOp::LimbEmbed, out.numLimbs(),
                  2 * out.numLimbs() * n, 0);
    run(out.numLimbs(), [&](size_t l) {
        kernels_.limb_embed(src.data(), n, src_q.value(), out_moduli[l],
                            out.limb(l));
    });
}

void
KernelBackend::evkMulAcc(const RnsPoly &digit, const RnsPoly &evk_b,
                         const RnsPoly &evk_a, size_t nq, size_t full_nq,
                         const std::vector<Modulus> &key_moduli,
                         RnsPoly &acc_b, RnsPoly &acc_a)
{
    const size_t limbs = digit.numLimbs();
    const size_t n = digit.degree();
    ARK_ASSERT(digit.rep() == Rep::Eval && acc_b.rep() == Rep::Eval &&
                   acc_a.rep() == Rep::Eval,
               "evk MAC requires evaluation representation");
    ARK_ASSERT(acc_b.sameShape(digit) && acc_a.sameShape(digit),
               "accumulator shape mismatch");
    ARK_ASSERT(limbs >= nq && key_moduli.size() >= limbs,
               "digit limb count inconsistent with nq");
    ARK_ASSERT(evk_b.numLimbs() == full_nq + (limbs - nq) &&
                   evk_b.sameShape(evk_a),
               "evk polys must span the full key basis");
    obs::ScopedSpan span("evk_mul_acc");
    recordStats(KernelOp::EvkMulAcc, limbs, 7 * limbs * n,
                  2 * limbs * n);
    noteEvkWords(2 * limbs * n); // evk operand stream
    run(limbs, [&](size_t l) {
        // evk polys span the full basis; select the matching limb.
        const size_t evk_limb = l < nq ? l : full_nq + (l - nq);
        kernels_.evk_mac_limb(key_moduli[l], digit.limb(l),
                              evk_b.limb(evk_limb), evk_a.limb(evk_limb),
                              acc_b.limb(l), acc_a.limb(l), n);
    });
}

size_t
plainMacFoldTerms(const Modulus &q)
{
    const u128 max_product = static_cast<u128>(q.value() - 1) *
                             (q.value() - 1);
    const u128 terms = (~static_cast<u128>(0) - (q.value() - 1)) /
                       max_product;
    return terms > SIZE_MAX ? SIZE_MAX : static_cast<size_t>(terms);
}

void
KernelBackend::plainMulSum(const std::vector<PlainMulTerm> &terms,
                           const std::vector<Modulus> &moduli,
                           const std::vector<const NttTables *> &tables,
                           RnsPoly &out_b, RnsPoly &out_a)
{
    const size_t limbs = out_b.numLimbs();
    const size_t n = out_b.degree();
    ARK_ASSERT(out_a.sameShape(out_b), "output shape mismatch");
    ARK_ASSERT(moduli.size() >= limbs && tables.size() >= limbs,
               "not enough moduli or NTT tables");
    u64 generated = 0, stored = 0;
    for (const PlainMulTerm &t : terms) {
        ARK_ASSERT(t.b->sameShape(out_b) && t.a->sameShape(out_b) &&
                       t.b->rep() == Rep::Eval && t.a->rep() == Rep::Eval,
                   "ciphertext terms must match the output, in Eval rep");
        ARK_ASSERT(t.pt->degree() == n, "plaintext degree mismatch");
        if (t.pt->rep() == Rep::Coeff) {
            ARK_ASSERT(t.pt->numLimbs() == 1,
                       "an OF-Limb plaintext is one q_0 limb");
            ++generated;
        } else {
            ARK_ASSERT(t.pt->numLimbs() >= limbs,
                       "stored plaintext has fewer limbs than the output");
            ++stored;
        }
    }
    obs::ScopedSpan span("plain_mul_sum");
    const u64 k = terms.size();
    if (generated > 0) {
        recordStats(KernelOp::LimbEmbed, generated * limbs,
                    2 * generated * limbs * n, 0);
        recordStats(KernelOp::NttForward, generated * limbs,
                    2 * generated * limbs * n,
                    generated * limbs * nttMults(n));
    }
    recordStats(KernelOp::MulAccEval, k * limbs, (3 * k + 2) * limbs * n,
                2 * k * limbs * n);
    notePlaintextWords((generated + stored * limbs) * n);

    const u64 q0 = moduli[0].value();
    run(limbs, [&](size_t l) {
        const Modulus &q = moduli[l];
        const size_t fold = plainMacFoldTerms(q);
        // Row 0: the generated plaintext limb; rows 1-4: the b and a
        // accumulators (lo, hi), zeroed because the MAC adds into them.
        RnsPoly scratch = pool_.acquire(n, 5, Rep::Coeff);
        u64 *gen = scratch.limb(0);
        u64 *acc = scratch.limb(1);
        std::memset(acc, 0, 4 * n * sizeof(u64));
        size_t pending = 0;
        for (const PlainMulTerm &t : terms) {
            const u64 *pt = gen;
            if (t.pt->rep() == Rep::Coeff) {
                kernels_.limb_embed(t.pt->limb(0), n, q0, q, gen);
                kernels_.ntt_forward(gen, *tables[l]);
            } else {
                pt = t.pt->limb(l);
            }
            if (pending == fold) {
                kernels_.plain_reduce_limb(q, acc, n, acc, acc + 2 * n);
                std::memset(acc + n, 0, n * sizeof(u64));
                std::memset(acc + 3 * n, 0, n * sizeof(u64));
                pending = 0;
            }
            kernels_.plain_mac_limb(pt, t.b->limb(l), t.a->limb(l), acc,
                                    n);
            ++pending;
        }
        kernels_.plain_reduce_limb(q, acc, n, out_b.limb(l),
                                   out_a.limb(l));
        pool_.release(std::move(scratch));
    });
    out_b.setRep(Rep::Eval);
    out_a.setRep(Rep::Eval);
}

// ---------------------------------------------------------------------------
// NTT kernels
// ---------------------------------------------------------------------------

void
KernelBackend::nttForward(RnsPoly &p,
                          const std::vector<const NttTables *> &tables)
{
    ARK_ASSERT(p.rep() == Rep::Coeff, "forward NTT needs Coeff rep");
    ARK_ASSERT(tables.size() >= p.numLimbs(), "not enough NTT tables");
    const size_t n = p.degree();
    obs::ScopedSpan span("ntt_fwd");
    recordStats(KernelOp::NttForward, p.numLimbs(),
                  2 * p.numLimbs() * n, p.numLimbs() * nttMults(n));
    run(p.numLimbs(), [&](size_t l) {
        kernels_.ntt_forward(p.limb(l), *tables[l]);
    });
    p.setRep(Rep::Eval);
}

void
KernelBackend::nttInverse(RnsPoly &p,
                          const std::vector<const NttTables *> &tables)
{
    ARK_ASSERT(p.rep() == Rep::Eval, "inverse NTT needs Eval rep");
    ARK_ASSERT(tables.size() >= p.numLimbs(), "not enough NTT tables");
    const size_t n = p.degree();
    obs::ScopedSpan span("ntt_inv");
    recordStats(KernelOp::NttInverse, p.numLimbs(),
                  2 * p.numLimbs() * n,
                  p.numLimbs() * (nttMults(n) + n));
    run(p.numLimbs(), [&](size_t l) {
        kernels_.ntt_inverse(p.limb(l), *tables[l]);
    });
    p.setRep(Rep::Coeff);
}

void
KernelBackend::nttForward(RnsPoly &p, const std::vector<NttTables> &tables)
{
    std::vector<const NttTables *> ptrs(p.numLimbs());
    for (size_t l = 0; l < p.numLimbs(); ++l)
        ptrs[l] = &tables[l];
    nttForward(p, ptrs);
}

void
KernelBackend::nttInverse(RnsPoly &p, const std::vector<NttTables> &tables)
{
    std::vector<const NttTables *> ptrs(p.numLimbs());
    for (size_t l = 0; l < p.numLimbs(); ++l)
        ptrs[l] = &tables[l];
    nttInverse(p, ptrs);
}

void
KernelBackend::nttInverseLimb(u64 *limb, const NttTables &table)
{
    const size_t n = table.degree();
    recordStats(KernelOp::NttInverse, 1, 2 * n, nttMults(n) + n);
    kernels_.ntt_inverse(limb, table);
}

// ---------------------------------------------------------------------------
// BConv, automorphism, and the fused key-switch digit path
// ---------------------------------------------------------------------------

RnsPoly
KernelBackend::bconv(const BaseConverter &bc, const RnsPoly &in)
{
    ARK_ASSERT(in.rep() == Rep::Coeff, "BConv needs Coeff rep");
    ARK_ASSERT(in.numLimbs() == bc.inBase().size(),
               "input limb count must match input base");
    const size_t nb = bc.inBase().size();
    const size_t nc = bc.outBase().size();
    const size_t n = in.degree();
    obs::ScopedSpan span("bconv");
    recordStats(KernelOp::BConv, nb + nc, (nb + nc) * n,
                  nb * n + nb * nc * n);

    // Fused scale + matmul, one coefficient tile per job: each tile's
    // transposed scratch lives on the executing thread's stack, the
    // output column blocks are disjoint, and the per-coefficient math
    // matches the two-stage reference bit for bit.
    RnsPoly out = pool_.acquire(n, nc, Rep::Coeff);
    const size_t tile = bc.tileCoeffs();
    const size_t num_tiles = (n + tile - 1) / tile;
    run(num_tiles, [&](size_t t) {
        alignas(64) u64 scratch[BaseConverter::kTileWords];
        const size_t c0 = t * tile;
        kernels_.bconv_tile(bc, in, c0, std::min(c0 + tile, n), scratch,
                            out);
    });
    return out;
}

RnsPoly
KernelBackend::automorphism(const Automorphism &am, const RnsPoly &p,
                            const std::vector<Modulus> &moduli)
{
    const size_t n = p.degree();
    obs::ScopedSpan span("automorphism");
    recordStats(KernelOp::Automorphism, p.numLimbs(),
                  2 * p.numLimbs() * n, 0);
    // Pooled: apply{Coeff,Eval} write every output position (the index
    // map is a permutation), so stale buffer words never survive.
    RnsPoly out = pool_.acquire(n, p.numLimbs(), p.rep());
    run(p.numLimbs(), [&](size_t l) {
        if (p.rep() == Rep::Coeff)
            am.applyCoeff(p.limb(l), out.limb(l), moduli[l]);
        else
            am.applyEval(p.limb(l), out.limb(l));
    });
    return out;
}

RnsPoly
KernelBackend::nttBconvNtt(const RnsPoly &digit,
                           const std::vector<const NttTables *> &in_tables,
                           const BaseConverter &bc,
                           const std::vector<const NttTables *> &out_tables)
{
    const size_t nb = bc.inBase().size();
    const size_t nc = bc.outBase().size();
    const size_t n = digit.degree();
    ARK_ASSERT(digit.rep() == Rep::Eval,
               "fused digit path starts from the evaluation rep");
    ARK_ASSERT(digit.numLimbs() == nb, "digit limbs must match in-base");
    ARK_ASSERT(in_tables.size() >= nb && out_tables.size() >= nc,
               "not enough NTT tables");
    // Tally the fused call itself, then credit the component counters
    // so FU-level consumers (simulator) see the right per-FU split.
    obs::ScopedSpan span("ntt_bconv_ntt");
    recordStats(KernelOp::NttBconvNtt, nb + nc, 0, 0);
    recordStats(KernelOp::NttInverse, nb, 2 * nb * n,
                  nb * (nttMults(n) + n));
    recordStats(KernelOp::BConv, nb + nc, (nb + nc) * n,
                  nb * n + nb * nc * n);
    recordStats(KernelOp::NttForward, nc, 2 * nc * n,
                  nc * nttMults(n));

    // Stage 1: INTT each digit limb into one pooled scratch matrix
    // (the BConv scale now rides inside the tile pass, where the
    // NTTU's BConv-mult unit applies it in hardware, Fig. 5).
    RnsPoly scaled = pool_.acquire(n, nb, Rep::Coeff);
    run(nb, [&](size_t j) {
        u64 *dst = scaled.limb(j);
        std::memcpy(dst, digit.limb(j), n * sizeof(u64));
        kernels_.ntt_inverse(dst, *in_tables[j]);
    });

    // Stage 2: fused, cache-blocked scale+MAC over coefficient tiles
    // (see BaseConverter::convertTile) — no materialized scaled
    // polynomial beyond the INTT output already in hand.
    RnsPoly out = pool_.acquire(n, nc, Rep::Coeff);
    const size_t tile = bc.tileCoeffs();
    const size_t num_tiles = (n + tile - 1) / tile;
    run(num_tiles, [&](size_t t) {
        alignas(64) u64 scratch[BaseConverter::kTileWords];
        const size_t c0 = t * tile;
        kernels_.bconv_tile(bc, scaled, c0, std::min(c0 + tile, n),
                            scratch, out);
    });
    pool_.release(std::move(scaled));

    // Stage 3: forward-NTT each produced limb in place.
    run(nc, [&](size_t i) {
        kernels_.ntt_forward(out.limb(i), *out_tables[i]);
    });
    out.setRep(Rep::Eval);
    return out;
}

// ---------------------------------------------------------------------------
// Per-thread measured-tally shards
// ---------------------------------------------------------------------------


void
KernelBackend::recordStats(KernelOp op, u64 limbs, u64 words, u64 mults)
{
    auto &c = shards_.local().counters[static_cast<size_t>(op)];
    c.calls.fetch_add(1, std::memory_order_relaxed);
    c.limbs.fetch_add(limbs, std::memory_order_relaxed);
    c.words.fetch_add(words, std::memory_order_relaxed);
    c.mults.fetch_add(mults, std::memory_order_relaxed);
}

void
KernelBackend::noteEvkWords(u64 words)
{
    shards_.local().evk_words.fetch_add(words, std::memory_order_relaxed);
}

void
KernelBackend::notePlaintextWords(u64 words)
{
    shards_.local().plaintext_words.fetch_add(words, std::memory_order_relaxed);
}

KernelStats
KernelBackend::stats() const
{
    KernelStats out;
    shards_.forEach([&](const StatsShard &s) {
        for (size_t i = 0; i < kNumKernelOps; ++i) {
            const auto &c = s.counters[i];
            out.counters[i].calls +=
                c.calls.load(std::memory_order_relaxed);
            out.counters[i].limbs +=
                c.limbs.load(std::memory_order_relaxed);
            out.counters[i].words +=
                c.words.load(std::memory_order_relaxed);
            out.counters[i].mults +=
                c.mults.load(std::memory_order_relaxed);
        }
        out.evk_words += s.evk_words.load(std::memory_order_relaxed);
        out.plaintext_words +=
            s.plaintext_words.load(std::memory_order_relaxed);
    });
    return out;
}

void
KernelBackend::resetStats()
{
    shards_.forEach([](StatsShard &s) {
        for (auto &c : s.counters) {
            c.calls.store(0, std::memory_order_relaxed);
            c.limbs.store(0, std::memory_order_relaxed);
            c.words.store(0, std::memory_order_relaxed);
            c.mults.store(0, std::memory_order_relaxed);
        }
        s.evk_words.store(0, std::memory_order_relaxed);
        s.plaintext_words.store(0, std::memory_order_relaxed);
    });
}

// ---------------------------------------------------------------------------
// The two axes and the factory
// ---------------------------------------------------------------------------

namespace {

/** The kernel table: host best, capped by @p max_tier and ARK_SIMD_TIER. */
const SimdKernels &
cappedKernels(SimdTier max_tier)
{
    return simdKernels(
        std::min({max_tier, simdTierFromEnv(kMaxSimdTier), detectSimdTier()}));
}

} // namespace

KernelBackend::KernelBackend(SimdTier max_tier)
    : kernels_(cappedKernels(max_tier)),
      name_(std::string("serial/") + simdTierName(kernels_.tier))
{
}

KernelBackend::KernelBackend(SimdTier max_tier, size_t pool_threads)
    : kernels_(cappedKernels(max_tier)),
      executor_(std::make_unique<ThreadPool>(pool_threads)),
      name_(std::string("pool/") + simdTierName(kernels_.tier))
{
}

KernelBackend::~KernelBackend() = default;

size_t
KernelBackend::threads() const
{
    return executor_ == nullptr ? 1 : executor_->threads();
}

SimdTier
KernelBackend::tier() const
{
    return kernels_.tier;
}

std::unique_ptr<KernelBackend>
makeKernelBackend(BackendKind kind, size_t num_threads)
{
    switch (kind) {
      case BackendKind::Scalar:
        return std::make_unique<KernelBackend>(SimdTier::Scalar);
      case BackendKind::Parallel:
        return std::make_unique<KernelBackend>(kMaxSimdTier, num_threads);
      case BackendKind::Simd:
        return std::make_unique<KernelBackend>();
    }
    ARK_PANIC("unreachable");
}

bool
parseBackendKind(const char *name, BackendKind &out)
{
    if (std::strcmp(name, "scalar") == 0) {
        out = BackendKind::Scalar;
        return true;
    }
    if (std::strcmp(name, "parallel") == 0) {
        out = BackendKind::Parallel;
        return true;
    }
    if (std::strcmp(name, "simd") == 0) {
        out = BackendKind::Simd;
        return true;
    }
    return false;
}

BackendKind
backendKindFromEnv(BackendKind fallback)
{
    BackendKind kind = fallback;
    const char *env = envValue("ARK_BACKEND");
    if (env != nullptr && !parseBackendKind(env, kind))
        fatalEnv("ARK_BACKEND", env,
                 "'scalar', 'parallel', or 'simd'");
    return kind;
}

size_t
backendThreadsFromEnv(size_t fallback)
{
    static_assert(kMaxBackendThreads == 4096,
                  "keep the ARK_THREADS message in step");
    return static_cast<size_t>(
        envU64("ARK_THREADS", 0, kMaxBackendThreads,
               "an integer in [0, 4096]; 0 = hardware concurrency")
            .value_or(fallback));
}

} // namespace ark
